"""Failure-path integration tests: transport errors, mid-release
transform failures, bulk-session rollback — each verified against the
real warehouse (both backends), including the persisted snapshot
state the Data Hounds' crash recovery depends on."""

import pytest

from repro.datahounds import InMemoryRepository
from repro.errors import TransformError, TransportError
from repro.relational import CREATE_INDEXES
from repro.xmlkit import parse_document
from tests.shredding.test_bulk_load import secondary_indexes

GOOD = ("ID   1.1.1.1\nDE   alcohol dehydrogenase.\n//\n"
        "ID   1.1.1.2\nDE   another enzyme.\n//\n")
BROKEN = ("ID   1.1.1.1\nDE   fine.\n//\n"
          "ID   1.1.1.2\nDE   broken.\nPR   NOT A PROSITE LINE\n//\n")


class TestTransportErrorPropagation:
    def test_fetch_failure_reaches_the_caller(self, empty_warehouse):
        repo = InMemoryRepository()
        repo.publish("hlx_enzyme", "r1", GOOD)
        hound = empty_warehouse.connect(repo)
        with pytest.raises(TransportError):
            hound.load("hlx_enzyme", "r99")

    def test_failed_fetch_leaves_warehouse_and_snapshot_untouched(
            self, empty_warehouse):
        repo = InMemoryRepository()
        hound = empty_warehouse.connect(repo)
        with pytest.raises(TransportError):
            hound.load("hlx_enzyme")
        assert empty_warehouse.stats()["documents"] == 0
        assert empty_warehouse.loader.load_snapshots() == {}

    def test_failed_refresh_keeps_previous_release_queryable(
            self, empty_warehouse):
        repo = InMemoryRepository()
        repo.publish("hlx_enzyme", "r1", GOOD)
        hound = empty_warehouse.connect(repo)
        hound.load("hlx_enzyme")
        with pytest.raises(TransportError):
            hound.load("hlx_enzyme", "r99")
        assert hound.loaded_release("hlx_enzyme") == "r1"
        assert empty_warehouse.stats()["documents"] == 2
        release, fingerprints = (
            empty_warehouse.loader.load_snapshots()["hlx_enzyme"])
        assert release == "r1" and len(fingerprints) == 2


class TestTransformFailureMidRelease:
    def test_warehouse_untouched_after_initial_load_failure(
            self, empty_warehouse):
        """Two-phase apply against the real store: a malformed entry
        anywhere in the release leaves zero rows behind."""
        repo = InMemoryRepository()
        repo.publish("hlx_enzyme", "r1", BROKEN)
        hound = empty_warehouse.connect(repo)
        with pytest.raises(TransformError):
            hound.load("hlx_enzyme")
        stats = empty_warehouse.stats()
        assert stats["documents"] == 0
        assert stats["elements"] == 0
        assert empty_warehouse.loader.load_snapshots() == {}

    def test_refresh_failure_preserves_loaded_release(
            self, empty_warehouse):
        repo = InMemoryRepository()
        repo.publish("hlx_enzyme", "r1", GOOD)
        hound = empty_warehouse.connect(repo)
        hound.load("hlx_enzyme")
        before = empty_warehouse.stats()
        repo.publish("hlx_enzyme", "r2", BROKEN)
        with pytest.raises(TransformError):
            hound.load("hlx_enzyme")
        assert empty_warehouse.stats() == before
        release, __ = empty_warehouse.loader.load_snapshots()["hlx_enzyme"]
        assert release == "r1"   # snapshot still points at the good one

    def test_quarantine_loads_the_healthy_remainder(self, empty_warehouse):
        repo = InMemoryRepository()
        repo.publish("hlx_enzyme", "r1", BROKEN)
        hound = empty_warehouse.connect(repo, quarantine=True)
        report = hound.load("hlx_enzyme")
        assert report.quarantined == ("1.1.1.2",)
        assert empty_warehouse.stats()["documents"] == 1
        __, fingerprints = (
            empty_warehouse.loader.load_snapshots()["hlx_enzyme"])
        assert set(fingerprints) == {"1.1.1.1"}


class TestBulkSessionRollback:
    def doc(self, index):
        return parse_document(f"<r><v>{index}</v></r>")

    def test_partial_batch_discarded_on_failure(self, empty_warehouse):
        """A session is one transaction: flushed batches are rolled
        back with the in-flight partial one, so a failed load writes
        nothing. minidb is non-atomic (``rollback`` is a documented
        no-op), so its flushed batches stay and only the partial one
        is discarded."""
        loader = empty_warehouse.loader
        with pytest.raises(RuntimeError):
            with loader.bulk_session(batch_size=2) as session:
                for index in range(5):     # flushes at 2 and 4
                    session.add("db", "c", f"k{index}", self.doc(index))
                raise RuntimeError("simulated store failure")
        expected = {"sqlite": 0, "minidb": 4}[loader.backend.name]
        assert loader.document_count("db") == expected
        assert session.flushes == 2

    def test_failure_before_first_flush_writes_nothing(
            self, empty_warehouse):
        loader = empty_warehouse.loader
        with pytest.raises(RuntimeError):
            with loader.bulk_session(batch_size=100) as session:
                session.add("db", "c", "k", self.doc(0))
                raise RuntimeError("boom")
        assert loader.document_count() == 0

    def test_committed_rows_are_indexed_after_failure(
            self, empty_warehouse):
        """A load into an empty warehouse defers its indexes; when the
        session block raises they must all come back. On sqlite the
        rollback leaves no rows; minidb is non-atomic, so its flushed
        row stays and must be queryable through the rebuilt indexes."""
        loader = empty_warehouse.loader
        with pytest.raises(RuntimeError):
            with loader.bulk_session(batch_size=1) as session:
                session.add("db", "c", "k0", self.doc(0))  # flushed
                raise RuntimeError("boom")
        backend = empty_warehouse.backend
        assert len(secondary_indexes(backend)) == len(CREATE_INDEXES)
        if backend.name == "sqlite":
            assert loader.document_count() == 0
            return
        empty_warehouse.optimize()
        result = empty_warehouse.query(
            'FOR $e IN document("db.c")/r RETURN $e/v')
        assert result.scalars("v") == ["0"]

    def test_snapshot_untouched_by_failed_bulk_load(self, empty_warehouse):
        repo = InMemoryRepository()
        repo.publish("hlx_enzyme", "r1", GOOD)
        empty_warehouse.connect(repo).load("hlx_enzyme")
        loader = empty_warehouse.loader
        with pytest.raises(RuntimeError):
            with loader.bulk_session(batch_size=2) as session:
                session.add("db", "c", "k", self.doc(0))
                raise RuntimeError("boom")
        release, fingerprints = loader.load_snapshots()["hlx_enzyme"]
        assert release == "r1" and len(fingerprints) == 2
