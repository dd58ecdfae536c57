"""A harvest round is one transaction.

The Data Hounds integrate each release "without any information being
left out or added twice". These tests hold the relational side to that
for the whole round, not just its final state: a second connection
never sees a half-applied round, a failure at any statement of the
round leaves the previous release exactly (rows and snapshot alike),
and a reopened hound converges from there.
"""

from __future__ import annotations

import sqlite3
import threading

import pytest

from repro.datahounds import InMemoryRepository
from repro.engine import Warehouse
from repro.errors import StorageError
from repro.flatfile import parse_entries, render_entries
from repro.relational import CREATE_INDEXES, SqliteBackend
from repro.subscriptions import SubscriptionManager
from repro.synth import generate_enzyme_release, mutate_release
from repro.xmlkit import parse_document
from tests.shredding.test_bulk_load import secondary_indexes

SOURCE = "hlx_enzyme"
QUERY = ('FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme '
         'RETURN $a//enzyme_id')


class TestCrossConnectionReader:
    def test_second_connection_sees_r1_or_r2_only(self, tmp_path):
        """A reader on its own connection polls the document count
        while a round updates about half the entries and removes some:
        every count it sees is the r1 count or the r2 count."""
        r1 = generate_enzyme_release(seed=5, count=400)
        r2 = mutate_release(r1, seed=9, update_fraction=0.5,
                            remove_fraction=0.08)
        r1_count, r2_count = len(parse_entries(r1)), len(parse_entries(r2))
        assert r2_count < r1_count
        path = tmp_path / "warehouse.sqlite"
        warehouse = Warehouse(backend=SqliteBackend(path))
        repo = InMemoryRepository()
        repo.publish(SOURCE, "r1", r1)
        hound = warehouse.connect(repo)
        hound.load(SOURCE)
        repo.publish(SOURCE, "r2", r2)

        seen: set[int] = set()
        polls = [0]
        started, done = threading.Event(), threading.Event()

        def poll():
            reader = sqlite3.connect(str(path))
            try:
                while not done.is_set():
                    seen.add(reader.execute(
                        "SELECT COUNT(*) FROM documents").fetchone()[0])
                    polls[0] += 1
                    started.set()
            finally:
                reader.close()

        poller = threading.Thread(target=poll)
        poller.start()
        try:
            assert started.wait(timeout=10)
            report = hound.load(SOURCE)
        finally:
            done.set()
            poller.join(timeout=30)
            warehouse.close()
        assert not poller.is_alive()
        assert report.plan.updated and report.plan.removed
        assert polls[0] > 1
        assert seen <= {r1_count, r2_count}, sorted(seen)


class FailingBackend:
    """Raises :class:`StorageError` on the ``fail_at``-th ``execute``,
    ``executemany`` or ``commit`` (only ``operation`` calls, when
    given) counted since :meth:`arm`, after calling ``on_failure``
    when set; forwards everything else (``rollback``, ``analyze``)
    untouched."""

    def __init__(self, inner):
        self.inner = inner
        self.fail_at: int | None = None
        self.operation: str | None = None
        self.calls = 0
        self.failed_on = ""
        self.on_failure = None

    def arm(self, fail_at: int, operation: str | None = None) -> None:
        self.fail_at, self.operation = fail_at, operation
        self.calls, self.failed_on = 0, ""

    def disarm(self) -> None:
        self.fail_at = None

    def _tick(self, operation: str) -> None:
        if self.fail_at is None or self.operation not in (None,
                                                           operation):
            return
        self.calls += 1
        if self.calls == self.fail_at:
            self.failed_on = operation
            if self.on_failure is not None:
                self.on_failure()
            raise StorageError(f"injected failure at {operation} "
                               f"#{self.calls}")

    def execute(self, sql, params=()):
        self._tick("execute")
        return self.inner.execute(sql, params)

    def executemany(self, sql, params_seq):
        self._tick("executemany")
        return self.inner.executemany(sql, params_seq)

    def commit(self):
        self._tick("commit")
        self.inner.commit()

    def __getattr__(self, name):
        return getattr(self.inner, name)


def small_releases() -> tuple[str, str]:
    """r1 and r2 of a 12-entry ENZYME source: r2 adds two entries,
    updates some and removes the first two plus a few more."""
    entries = parse_entries(generate_enzyme_release(seed=3, count=14))
    r1 = render_entries(entries[:12])
    r2 = mutate_release(render_entries(entries[2:]), seed=4,
                        update_fraction=0.4, remove_fraction=0.15)
    return r1, r2


def state(warehouse: Warehouse):
    return (warehouse.stats(), warehouse.loader.load_snapshots(),
            warehouse.query(QUERY).to_xml())


class TestFailurePointSweep:
    def test_every_failure_point_leaves_r1_and_converges(self):
        r1, r2 = small_releases()
        reloaded = Warehouse(backend=SqliteBackend())
        reloaded_repo = InMemoryRepository()
        reloaded_repo.publish(SOURCE, "r2", r2)
        reloaded.connect(reloaded_repo).load(SOURCE)
        r2_stats = reloaded.stats()
        # answers follow document order, which an incremental round
        # and a full reload assign differently: compare answers with
        # a round that did not fail
        clean = Warehouse(backend=SqliteBackend())
        clean_repo = InMemoryRepository()
        clean_hound = clean.connect(clean_repo)
        for release, text in (("r1", r1), ("r2", r2)):
            clean_repo.publish(SOURCE, release, text)
            clean_hound.load(SOURCE)
        assert clean.stats() == r2_stats
        r2_answer = clean.query(QUERY).to_xml()

        fail_at, failed_on = 0, []
        while True:
            fail_at += 1
            backend = FailingBackend(SqliteBackend())
            warehouse = Warehouse(backend=backend)
            repo = InMemoryRepository()
            repo.publish(SOURCE, "r1", r1)
            hound = warehouse.connect(repo)
            hound.load(SOURCE)
            r1_state = state(warehouse)
            repo.publish(SOURCE, "r2", r2)
            backend.arm(fail_at)
            try:
                report = hound.load(SOURCE)
            except StorageError:
                backend.disarm()
            else:
                backend.disarm()
                # past the round's last statement: it committed
                assert report.plan.added and report.plan.updated
                assert report.plan.removed
                assert warehouse.stats() == r2_stats
                break
            failed_on.append(backend.failed_on)
            assert state(warehouse) == r1_state, (fail_at,
                                                  backend.failed_on)
            assert hound.loaded_release(SOURCE) == "r1"
            revived = warehouse.connect(repo)
            assert revived.loaded_release(SOURCE) == "r1"
            revived.load(SOURCE)
            assert warehouse.stats() == r2_stats
            assert warehouse.query(QUERY).to_xml() == r2_answer
        # the sweep reached the round's one commit, and it was last
        assert failed_on.count("commit") == 1
        assert failed_on[-1] == "commit"
        assert "executemany" in failed_on


class TestSubscriptionDuringRound:
    def test_subscribe_waits_for_a_failing_round(self, tmp_path):
        """Subscription rows share the warehouse connection with the
        round. A subscribe while the round is open waits for the
        round's write lock, so its commit cannot publish the round's
        uncommitted rows and the round's rollback cannot discard the
        subscription row."""
        r1, r2 = small_releases()
        path = tmp_path / "warehouse.sqlite"
        backend = FailingBackend(SqliteBackend(path))
        warehouse = Warehouse(backend=backend)
        repo = InMemoryRepository()
        repo.publish(SOURCE, "r1", r1)
        hound = warehouse.connect(repo)
        hound.load(SOURCE)
        r1_state = state(warehouse)
        repo.publish(SOURCE, "r2", r2)
        manager = SubscriptionManager(warehouse)
        subscribed: list = []
        subscriber = threading.Thread(target=lambda: subscribed.append(
            manager.subscribe(QUERY, callback=lambda delta: None)))
        waited: list[bool] = []

        def subscribe_mid_round():
            # the round's rows are flushed; its commit is about to fail
            subscriber.start()
            subscriber.join(timeout=0.5)
            waited.append(subscriber.is_alive())

        backend.on_failure = subscribe_mid_round
        backend.arm(1, "commit")
        try:
            with pytest.raises(StorageError):
                hound.load(SOURCE)
        finally:
            subscriber.join(timeout=30)
            backend.disarm()
        assert waited == [True]
        assert len(subscribed) == 1
        reader = sqlite3.connect(str(path))
        try:
            documents = reader.execute(
                "SELECT COUNT(*) FROM documents").fetchone()[0]
            persisted = reader.execute(
                "SELECT sub_id FROM standing_subscriptions").fetchall()
        finally:
            reader.close()
        assert documents == r1_state[0]["documents"]
        assert persisted == [(subscribed[0].id,)]
        assert state(warehouse) == r1_state
        manager.close()
        warehouse.close()


class TestFailedInitialLoad:
    def test_failed_commit_keeps_every_index(self):
        """An initial load defers its indexes and rebuilds them inside
        the transaction; when the commit fails, the rollback undoes
        that rebuild too, and the index set must still come back."""
        backend = FailingBackend(SqliteBackend())
        warehouse = Warehouse(backend=backend)
        repo = InMemoryRepository()
        repo.publish(SOURCE, "r1", small_releases()[0])
        backend.arm(1, "commit")
        with pytest.raises(StorageError):
            warehouse.connect(repo).load(SOURCE)
        backend.disarm()
        assert warehouse.stats()["documents"] == 0
        assert warehouse.loader.load_snapshots() == {}
        assert len(secondary_indexes(backend)) == len(CREATE_INDEXES)


class TestNoDuplicateRows:
    def doc(self, body):
        return parse_document(f"<r><v>{body}</v></r>")

    def rows_per_key(self, warehouse):
        counts: dict[tuple[str, str], int] = {}
        for key in warehouse.backend.execute(
                "SELECT source, entry_key FROM documents"):
            counts[key] = counts.get(key, 0) + 1
        return counts

    def test_adding_a_stored_key_replaces_it(self, empty_warehouse):
        loader = empty_warehouse.loader
        loader.store_document("s", "c", "k1", self.doc("old"))
        with loader.bulk_session(batch_size=1) as session:
            session.add("s", "c", "k1", self.doc("new"))
            session.add("s", "c", "k2", self.doc("x"))
            session.add("s", "c", "k1", self.doc("newer"))
        assert self.rows_per_key(empty_warehouse) == {
            ("s", "k1"): 1, ("s", "k2"): 1}

    def test_reloading_a_release_keeps_one_row_per_key(
            self, empty_warehouse, corpus):
        empty_warehouse.load_text(SOURCE, corpus.enzyme_text)
        first = self.rows_per_key(empty_warehouse)
        empty_warehouse.load_text(SOURCE, corpus.enzyme_text)
        assert self.rows_per_key(empty_warehouse) == first
        assert set(first.values()) == {1}


class TestRemoveSource:
    def loaded(self):
        backend = FailingBackend(SqliteBackend())
        warehouse = Warehouse(backend=backend)
        repo = InMemoryRepository()
        repo.publish(SOURCE, "r1", small_releases()[0])
        warehouse.connect(repo).load(SOURCE)
        return backend, warehouse

    def test_failed_commit_keeps_documents_and_snapshot(self):
        """Decommissioning deletes the documents and the snapshot row
        in one transaction: a failure at its commit leaves both."""
        backend, warehouse = self.loaded()
        before = warehouse.stats(), warehouse.loader.load_snapshots()
        assert before[0]["documents"] == 12 and SOURCE in before[1]
        backend.arm(1, "commit")
        with pytest.raises(StorageError):
            warehouse.remove_source(SOURCE)
        backend.disarm()
        assert (warehouse.stats(),
                warehouse.loader.load_snapshots()) == before

    def test_documents_and_snapshot_go_in_one_commit(self):
        backend, warehouse = self.loaded()
        backend.arm(0, "commit")        # count commits, never fail
        assert warehouse.remove_source(SOURCE) == 12
        assert backend.calls == 1
        assert warehouse.stats()["documents"] == 0
        assert warehouse.loader.load_snapshots() == {}
