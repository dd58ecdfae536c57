"""Tests for standing-query subscriptions over a live warehouse."""

import pytest

from repro.datahounds import InMemoryRepository
from repro.engine import Warehouse
from repro.subscriptions import QuerySubscription
from repro.synth import build_corpus, mutate_release

QUERY = '''FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
WHERE contains($a//comment_list, "updated")
RETURN $a//enzyme_id'''

UNRELATED_QUERY = '''FOR $a IN document("hlx_sprot.all")/hlx_n_sequence
RETURN $a//entry_name'''


@pytest.fixture
def setup(backend):
    corpus = build_corpus(seed=19, enzyme_count=30, embl_count=5,
                          sprot_count=8)
    repository = InMemoryRepository()
    corpus.publish_to(repository, "r1")
    warehouse = Warehouse(backend=backend)
    hound = warehouse.connect(repository)
    return corpus, repository, warehouse, hound


class TestSubscriptionLifecycle:
    def test_initial_load_fires_callback(self, setup):
        corpus, repo, warehouse, hound = setup
        deltas = []
        QuerySubscription(warehouse, hound, QUERY, on_change=deltas.append)
        hound.load("hlx_enzyme")
        # no entry has the "updated" marker yet: result empty, no change
        assert deltas == []

    def test_update_produces_added_rows(self, setup):
        corpus, repo, warehouse, hound = setup
        deltas = []
        sub = QuerySubscription(warehouse, hound, QUERY,
                                on_change=deltas.append)
        hound.load("hlx_enzyme")
        repo.publish("hlx_enzyme", "r2",
                     mutate_release(corpus.enzyme_text, seed=5,
                                    update_fraction=0.3,
                                    remove_fraction=0.0))
        hound.load("hlx_enzyme")
        assert len(deltas) == 1
        assert deltas[0].added
        assert not deltas[0].removed
        assert deltas[0].total_rows == len(deltas[0].added)
        assert sub.last_result is not None
        # refresh/delivery instance counters track the lifecycle
        assert sub.refreshes == 2    # one per load
        assert sub.deliveries == 1   # only the changed delta delivered

    def test_refresh_and_delivery_feed_metrics(self, setup):
        from repro.obs import MetricsRegistry
        corpus, repo, warehouse, hound = setup
        registry = MetricsRegistry()
        warehouse.metrics = registry
        hound.metrics = registry
        deltas = []
        sub = QuerySubscription(warehouse, hound, QUERY,
                                on_change=deltas.append)
        hound.load("hlx_enzyme")
        repo.publish("hlx_enzyme", "r2",
                     mutate_release(corpus.enzyme_text, seed=5,
                                    update_fraction=0.3,
                                    remove_fraction=0.0))
        hound.load("hlx_enzyme")
        assert registry.get_counter("subscriptions.refreshes") == 2
        assert registry.get_counter("subscriptions.deliveries") == 1
        assert registry.get_counter("subscriptions.rows_added") \
            == len(deltas[0].added)
        assert registry.histogram("subscriptions.refresh_seconds").count == 2

    def test_removal_produces_removed_rows(self, setup):
        corpus, repo, warehouse, hound = setup
        deltas = []
        QuerySubscription(warehouse, hound, QUERY, on_change=deltas.append)
        hound.load("hlx_enzyme")
        release_2 = mutate_release(corpus.enzyme_text, seed=5,
                                   update_fraction=0.3, remove_fraction=0.0)
        repo.publish("hlx_enzyme", "r2", release_2)
        hound.load("hlx_enzyme")
        # r3 drops some entries entirely
        repo.publish("hlx_enzyme", "r3",
                     mutate_release(release_2, seed=6, update_fraction=0.0,
                                    remove_fraction=0.5))
        hound.load("hlx_enzyme")
        assert len(deltas) == 2
        assert deltas[1].removed

    def test_unrelated_source_does_not_trigger(self, setup):
        corpus, repo, warehouse, hound = setup
        deltas = []
        sub = QuerySubscription(warehouse, hound, UNRELATED_QUERY,
                                on_change=deltas.append,
                                fire_on_unchanged=True)
        assert sub.sources == ["hlx_sprot"]
        hound.load("hlx_enzyme")    # not a source of the query
        assert deltas == []
        hound.load("hlx_sprot")
        assert len(deltas) == 1

    def test_cancel_stops_callbacks(self, setup):
        corpus, repo, warehouse, hound = setup
        deltas = []
        sub = QuerySubscription(warehouse, hound, UNRELATED_QUERY,
                                on_change=deltas.append,
                                fire_on_unchanged=True)
        sub.cancel()
        hound.load("hlx_sprot")
        assert deltas == []

    def test_manual_refresh_primes_snapshot(self, setup):
        corpus, repo, warehouse, hound = setup
        sub = QuerySubscription(warehouse, hound, UNRELATED_QUERY)
        delta = sub.refresh()      # before any load: empty, not an error
        assert delta.total_rows == 0
        hound.load("hlx_sprot")
        # the trigger already refreshed the snapshot, so a manual
        # refresh sees the full result but no *new* delta
        delta = sub.refresh()
        assert delta.total_rows == corpus.sizes()["hlx_sprot"]
        assert delta.added == [] and delta.removed == []

    def test_trigger_refresh_updates_snapshot(self, setup):
        corpus, repo, warehouse, hound = setup
        deltas = []
        QuerySubscription(warehouse, hound, UNRELATED_QUERY,
                          on_change=deltas.append)
        hound.load("hlx_sprot")
        assert len(deltas) == 1
        assert len(deltas[0].added) == corpus.sizes()["hlx_sprot"]

    def test_reshredded_entries_keep_identity(self, setup):
        """A refresh that changes an entry's *unwatched* content must
        not report its row as removed-and-re-added (doc_ids change on
        re-shred; entry identity does not)."""
        corpus, repo, warehouse, hound = setup
        deltas = []
        QuerySubscription(warehouse, hound, UNRELATED_QUERY,
                          on_change=deltas.append)
        hound.load("hlx_sprot")
        assert len(deltas) == 1
        # r2: every entry gets a comment appended (content changes, the
        # watched entry_name values do not), none removed
        repo.publish("hlx_sprot", "r2",
                     mutate_release(corpus.sprot_text, seed=3,
                                    update_fraction=1.0,
                                    remove_fraction=0.0,
                                    marker="annotation update"))
        hound.load("hlx_sprot")
        # entry_name values unchanged -> no delta at all
        assert len(deltas) == 1

    def test_multi_source_query_subscribes_to_all(self, setup):
        corpus, repo, warehouse, hound = setup
        join_query = (
            'FOR $a IN document("hlx_embl.inv")/hlx_n_sequence/db_entry, '
            '$b IN document("hlx_enzyme.DEFAULT")/hlx_enzyme/db_entry '
            'WHERE $a//qualifier[@qualifier_type = "EC_number"] '
            '= $b/enzyme_id RETURN $a//embl_accession_number')
        sub = QuerySubscription(warehouse, hound, join_query)
        assert sub.sources == ["hlx_embl", "hlx_enzyme"]
