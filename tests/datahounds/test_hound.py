"""Integration tests for the Data Hound orchestrator (in-memory store)."""

import pytest

from repro.datahounds import DataHound, InMemoryRepository
from repro.errors import DataHoundsError, UnknownSourceError
from repro.synth import build_corpus, mutate_release
from repro.xmlkit import Document


class RecordingStore:
    """A DocumentStore that records operations (no relational engine)."""

    def __init__(self):
        self.documents = {}
        self.operations = []
        self.snapshots = {}

    def bulk_session(self):
        return RecordingSession(self)


class RecordingSession:
    """A minimal bulk session: each operation applies as it is made."""

    def __init__(self, store):
        self.store = store

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return None

    def add(self, source, collection, entry_key, document):
        assert isinstance(document, Document)
        self.store.documents[(source, entry_key)] = (collection, document)
        self.store.operations.append(("store", source, entry_key))

    def remove(self, source, entry_key):
        self.store.documents.pop((source, entry_key), None)
        self.store.operations.append(("remove", source, entry_key))

    def save_snapshot(self, source, release, fingerprints):
        self.store.snapshots[source] = (release, dict(fingerprints))


@pytest.fixture
def setup():
    corpus = build_corpus(seed=11, enzyme_count=12, embl_count=10,
                          sprot_count=10)
    repo = InMemoryRepository()
    corpus.publish_to(repo, "r1")
    store = RecordingStore()
    return corpus, repo, store


class TestInitialLoad:
    def test_loads_every_entry(self, setup):
        corpus, repo, store = setup
        hound = DataHound(repo, store)
        report = hound.load("hlx_enzyme")
        assert report.documents_loaded == 12
        assert len(report.plan.added) == 12
        assert hound.loaded_release("hlx_enzyme") == "r1"

    def test_unknown_source_rejected(self, setup):
        __, repo, store = setup
        with pytest.raises(UnknownSourceError):
            DataHound(repo, store).load("not_a_source")

    def test_embl_collections_routed_by_division(self, setup):
        corpus, repo, store = setup
        DataHound(repo, store).load("hlx_embl")
        collections = {c for (c, __) in store.documents.values()}
        assert collections == {"inv"}


class TestIncrementalUpdate:
    def test_unchanged_entries_not_reloaded(self, setup):
        corpus, repo, store = setup
        hound = DataHound(repo, store)
        hound.load("hlx_enzyme")
        store.operations.clear()
        repo.publish("hlx_enzyme", "r2",
                     mutate_release(corpus.enzyme_text, seed=3,
                                    update_fraction=0.25,
                                    remove_fraction=0.1))
        report = hound.load("hlx_enzyme")
        stores = [op for op in store.operations if op[0] == "store"]
        removes = [op for op in store.operations if op[0] == "remove"]
        assert len(stores) == len(report.plan.updated)
        assert len(removes) == len(report.plan.removed)
        assert len(report.plan.unchanged) > 0

    def test_refresh_to_same_release_is_noop(self, setup):
        corpus, repo, store = setup
        hound = DataHound(repo, store)
        hound.load("hlx_enzyme")
        store.operations.clear()
        report = hound.load("hlx_enzyme")
        assert report.plan.is_noop
        assert store.operations == []

    def test_triggers_fired_with_change_details(self, setup):
        corpus, repo, store = setup
        hound = DataHound(repo, store)
        events = []
        hound.subscribe(events.append, "hlx_enzyme")
        hound.load("hlx_enzyme")
        assert len(events) == 1
        repo.publish("hlx_enzyme", "r2",
                     mutate_release(corpus.enzyme_text, seed=3))
        hound.load("hlx_enzyme")
        assert len(events) == 2
        assert events[1].release == "r2"

    def test_no_trigger_on_noop_refresh(self, setup):
        corpus, repo, store = setup
        hound = DataHound(repo, store)
        events = []
        hound.subscribe(events.append)
        hound.load("hlx_enzyme")
        hound.load("hlx_enzyme")
        assert len(events) == 1

    def test_loads_feed_delta_metrics(self, setup):
        from repro.obs import MetricsRegistry
        corpus, repo, store = setup
        registry = MetricsRegistry()
        hound = DataHound(repo, store, metrics=registry)
        hound.load("hlx_enzyme")
        repo.publish("hlx_enzyme", "r2",
                     mutate_release(corpus.enzyme_text, seed=3,
                                    update_fraction=0.25,
                                    remove_fraction=0.1))
        report = hound.load("hlx_enzyme")
        get = lambda name: registry.get_counter(name, source="hlx_enzyme")
        assert get("hound.loads") == 2
        assert get("hound.entries_added") == 12
        assert get("hound.entries_updated") == len(report.plan.updated)
        assert get("hound.entries_removed") == len(report.plan.removed)
        assert get("hound.entries_unchanged") == len(report.plan.unchanged)
        assert registry.histogram("hound.load_seconds").count == 2
        assert registry.get_gauge_value("hound.last_harvest_timestamp",
                                        source="hlx_enzyme") > 0


class TestSafety:
    def test_duplicate_entry_keys_rejected(self, setup):
        __, repo, store = setup
        repo.publish("hlx_enzyme", "r9",
                     "ID   1.1.1.1\nDE   a.\n//\nID   1.1.1.1\nDE   b.\n//\n")
        hound = DataHound(repo, store)
        with pytest.raises(DataHoundsError):
            hound.load("hlx_enzyme", "r9")

    def test_corrupt_entry_aborts_whole_load(self, setup):
        """Two-phase apply: a malformed entry anywhere in the release
        must leave the warehouse completely untouched."""
        from repro.errors import TransformError
        __, repo, store = setup
        repo.publish(
            "hlx_enzyme", "r9",
            "ID   1.1.1.1\nDE   fine.\n//\n"
            "ID   1.1.1.2\nDE   broken.\nPR   NOT A PROSITE LINE\n//\n")
        hound = DataHound(repo, store)
        with pytest.raises(TransformError):
            hound.load("hlx_enzyme", "r9")
        assert store.documents == {}
        assert store.operations == []
        assert hound.loaded_release("hlx_enzyme") is None

    def test_corrupt_refresh_keeps_previous_release(self, setup):
        from repro.errors import TransformError
        corpus, repo, store = setup
        hound = DataHound(repo, store)
        hound.load("hlx_enzyme")
        before = dict(store.documents)
        repo.publish("hlx_enzyme", "r9",
                     "ID   9.9.9.9\nDE   broken.\nDI   no mim here\n//\n")
        with pytest.raises(TransformError):
            hound.load("hlx_enzyme", "r9")
        assert store.documents == before
        assert hound.loaded_release("hlx_enzyme") == "r1"


class TestQuarantine:
    BROKEN_RELEASE = (
        "ID   1.1.1.1\nDE   fine.\n//\n"
        "ID   1.1.1.2\nDE   broken.\nPR   NOT A PROSITE LINE\n//\n"
        "ID   1.1.1.3\nDE   also fine.\n//\n")

    def test_quarantine_skips_malformed_entries(self, setup):
        __, repo, store = setup
        repo.publish("hlx_enzyme", "r9", self.BROKEN_RELEASE)
        hound = DataHound(repo, store, quarantine=True)
        report = hound.load("hlx_enzyme", "r9")
        assert report.quarantined == ("1.1.1.2",)
        assert report.documents_loaded == 2
        assert ("hlx_enzyme", "1.1.1.2") not in store.documents

    def test_quarantined_entry_retried_on_next_refresh(self, setup):
        """A quarantined entry stays out of the committed snapshot, so
        a fixed re-release loads it as new work."""
        __, repo, store = setup
        repo.publish("hlx_enzyme", "r9", self.BROKEN_RELEASE)
        hound = DataHound(repo, store, quarantine=True)
        hound.load("hlx_enzyme", "r9")
        repo.publish("hlx_enzyme", "r10",
                     self.BROKEN_RELEASE.replace(
                         "PR   NOT A PROSITE LINE\n", ""))
        report = hound.load("hlx_enzyme", "r10")
        assert report.quarantined == ()
        assert "1.1.1.2" in report.plan.added
        assert ("hlx_enzyme", "1.1.1.2") in store.documents

    def test_strict_mode_still_aborts(self, setup):
        from repro.errors import TransformError
        __, repo, store = setup
        repo.publish("hlx_enzyme", "r9", self.BROKEN_RELEASE)
        hound = DataHound(repo, store)     # quarantine off by default
        with pytest.raises(TransformError):
            hound.load("hlx_enzyme", "r9")
        assert store.documents == {}

    def test_quarantine_feeds_metrics_and_events(self, setup):
        from repro.obs import EventLog, MetricsRegistry
        __, repo, store = setup
        repo.publish("hlx_enzyme", "r9", self.BROKEN_RELEASE)
        metrics, events = MetricsRegistry(), EventLog()
        hound = DataHound(repo, store, quarantine=True,
                          metrics=metrics, events=events)
        hound.load("hlx_enzyme", "r9")
        assert metrics.get_counter("hound.entries_quarantined",
                                   source="hlx_enzyme") == 1
        warned = [e for e in events.events()
                  if e.name == "hound.quarantine"]
        assert len(warned) == 1
        assert warned[0].severity == "warning"
        assert warned[0].fields["entry_key"] == "1.1.1.2"

    def test_triggers_exclude_quarantined_keys(self, setup):
        __, repo, store = setup
        repo.publish("hlx_enzyme", "r9", self.BROKEN_RELEASE)
        hound = DataHound(repo, store, quarantine=True)
        fired = []
        hound.subscribe(fired.append, "hlx_enzyme")
        hound.load("hlx_enzyme", "r9")
        assert len(fired) == 1
        assert "1.1.1.2" not in fired[0].added


class TestHarvestAll:
    def test_harvests_every_published_known_source(self, setup):
        corpus, repo, store = setup
        hound = DataHound(repo, store)
        report = hound.harvest_all()
        assert report.ok
        assert sorted(report.reports) == ["hlx_embl", "hlx_enzyme",
                                          "hlx_sprot"]
        assert report.documents_loaded == 32

    def test_one_bad_source_is_isolated(self, setup):
        from repro.errors import TransportError
        corpus, repo, store = setup

        class Flaky:
            def __init__(self, inner):
                self.inner = inner

            def sources(self):
                return self.inner.sources()

            def latest_release(self, source):
                return self.inner.latest_release(source)

            def fetch(self, source, release=None):
                if source == "hlx_embl":
                    raise TransportError("mirror down")
                return self.inner.fetch(source, release)

        hound = DataHound(Flaky(repo), store)
        report = hound.harvest_all()
        assert not report.ok
        assert sorted(report.reports) == ["hlx_enzyme", "hlx_sprot"]
        assert report.failures["hlx_embl"].error_type == "TransportError"
        assert "mirror down" in str(report)

    def test_fail_fast_restores_abort_behaviour(self, setup):
        from repro.errors import TransportError
        corpus, repo, store = setup

        class Down:
            def sources(self):
                return ["hlx_enzyme"]

            def latest_release(self, source):
                return "r1"

            def fetch(self, source, release=None):
                raise TransportError("down")

        with pytest.raises(TransportError):
            DataHound(Down(), store).harvest_all(fail_fast=True)

    def test_explicit_source_list_respected(self, setup):
        corpus, repo, store = setup
        report = DataHound(repo, store).harvest_all(["hlx_enzyme"])
        assert sorted(report.reports) == ["hlx_enzyme"]

    def test_failures_feed_metrics_and_events(self, setup):
        from repro.errors import TransportError
        from repro.obs import EventLog, MetricsRegistry

        class Down:
            def sources(self):
                return ["hlx_enzyme"]

            def latest_release(self, source):
                return "r1"

            def fetch(self, source, release=None):
                raise TransportError("down")

        __, __, store = setup
        metrics, events = MetricsRegistry(), EventLog()
        hound = DataHound(Down(), store, metrics=metrics, events=events)
        report = hound.harvest_all()
        assert not report.ok
        assert metrics.get_counter("hound.harvest_failures",
                                   source="hlx_enzyme") == 1
        names = [e.name for e in events.events()]
        assert "hound.harvest_error" in names
        assert "hound.harvest" in names


class SnapshotStore(RecordingStore):
    """A RecordingStore that also restores the release snapshots its
    sessions saved (the warehouse loader's crash-recovery surface)."""

    def load_snapshots(self):
        return dict(self.snapshots)


class TestSnapshotPersistence:
    def test_snapshot_saved_after_each_load(self, setup):
        corpus, repo, store = setup
        store = SnapshotStore()
        hound = DataHound(repo, store)
        hound.load("hlx_enzyme")
        release, fingerprints = store.snapshots["hlx_enzyme"]
        assert release == "r1"
        assert len(fingerprints) == 12

    def test_restored_hound_resumes_incremental_diffs(self, setup):
        """A fresh hound over the same store must see the persisted
        snapshot: an unchanged re-harvest is a no-op, not a re-load."""
        corpus, repo, __ = setup
        store = SnapshotStore()
        DataHound(repo, store).load("hlx_enzyme")
        store.operations.clear()
        revived = DataHound(repo, store)
        assert revived.loaded_release("hlx_enzyme") == "r1"
        report = revived.load("hlx_enzyme")
        assert report.plan.is_noop
        assert store.operations == []

    def test_restored_hound_applies_only_the_delta(self, setup):
        corpus, repo, __ = setup
        store = SnapshotStore()
        DataHound(repo, store).load("hlx_enzyme")
        repo.publish("hlx_enzyme", "r2",
                     mutate_release(corpus.enzyme_text, seed=3,
                                    update_fraction=0.25,
                                    remove_fraction=0.1))
        store.operations.clear()
        report = DataHound(repo, store).load("hlx_enzyme")
        stores = [op for op in store.operations if op[0] == "store"]
        assert len(report.plan.unchanged) > 0
        assert len(stores) == (len(report.plan.added)
                               + len(report.plan.updated))

    def test_quarantined_keys_stay_out_of_persisted_snapshot(self, setup):
        __, repo, __ = setup
        store = SnapshotStore()
        repo.publish("hlx_enzyme", "r9", TestQuarantine.BROKEN_RELEASE)
        DataHound(repo, store, quarantine=True).load("hlx_enzyme", "r9")
        __, fingerprints = store.snapshots["hlx_enzyme"]
        assert "1.1.1.2" not in fingerprints
        assert set(fingerprints) == {"1.1.1.1", "1.1.1.3"}
