"""Unit tests for the batched bulk-load pipeline (both backends)."""

import pytest

from repro.engine import Warehouse
from repro.relational import CREATE_INDEXES, SchemaOptions
from repro.shredding import WarehouseLoader
from repro.xmlkit import parse_document


def doc(body: str):
    return parse_document(f"<r><v>{body}</v></r>")


class TestBulkLoadSession:
    def test_flushes_across_batch_boundaries(self, backend):
        loader = WarehouseLoader(backend)
        with loader.bulk_session(batch_size=2) as session:
            for i in range(5):
                session.add("s", "c", f"k{i}", doc(str(i)))
        assert session.flushes == 3  # 2 + 2 + remainder of 1
        assert session.documents_loaded == 5
        assert loader.document_count("s") == 5

    def test_rows_visible_only_after_flush(self, backend):
        loader = WarehouseLoader(backend)
        with loader.bulk_session(batch_size=10) as session:
            session.add("s", "c", "k0", doc("x"))
            assert loader.document_count("s") == 0
            session.flush()
            assert loader.document_count("s") == 1

    def test_doc_ids_are_sequential_in_add_order(self, backend):
        loader = WarehouseLoader(backend)
        with loader.bulk_session(batch_size=3) as session:
            ids = [session.add("s", "c", f"k{i}", doc(str(i)))
                   for i in range(4)]
        assert ids == sorted(ids)
        assert loader.doc_ids("s") == ids

    def test_upsert_replaces_previously_stored_entry(self, backend):
        loader = WarehouseLoader(backend)
        loader.store_document("s", "c", "k", doc("old"))
        with loader.bulk_session(batch_size=8) as session:
            session.add("s", "c", "k", doc("new"))
        assert loader.document_count("s") == 1
        values = backend.execute("SELECT value FROM text_values")
        assert ("new",) in values and ("old",) not in values

    def test_upsert_matches_any_collection(self, backend):
        loader = WarehouseLoader(backend)
        loader.store_document("s", "inv", "k", doc("old"))
        with loader.bulk_session() as session:
            session.add("s", "hum", "k", doc("new"))
        assert loader.document_count("s") == 1

    def test_within_batch_duplicate_key_keeps_last(self, backend):
        loader = WarehouseLoader(backend)
        with loader.bulk_session(batch_size=16) as session:
            session.add("s", "c", "k", doc("first"))
            session.add("s", "c", "k", doc("second"))
        assert loader.document_count("s") == 1
        values = backend.execute("SELECT value FROM text_values")
        assert ("second",) in values and ("first",) not in values

    def test_duplicate_key_across_flushes_keeps_last(self, backend):
        loader = WarehouseLoader(backend)
        with loader.bulk_session(batch_size=1) as session:
            session.add("s", "c", "k", doc("first"))
            session.add("s", "c", "k", doc("second"))
        assert loader.document_count("s") == 1
        values = backend.execute("SELECT value FROM text_values")
        assert ("second",) in values

    def test_exception_discards_partial_batch(self, backend):
        loader = WarehouseLoader(backend)
        with pytest.raises(RuntimeError):
            with loader.bulk_session(batch_size=10) as session:
                session.add("s", "c", "k", doc("x"))
                raise RuntimeError("boom")
        assert loader.document_count("s") == 0

    def test_exception_keeps_completed_batches(self, backend):
        """Flushed batches are not committed: a failed session rolls
        them back. minidb has no transactions (its ``rollback`` is a
        documented no-op), so there they stay."""
        loader = WarehouseLoader(backend)
        with pytest.raises(RuntimeError):
            with loader.bulk_session(batch_size=1) as session:
                session.add("s", "c", "a", doc("1"))  # flushed
                session.add("s", "c", "b", doc("2"))  # flushed
                raise RuntimeError("boom")
        assert session.flushes == 2
        expected = {"sqlite": 0, "minidb": 2}[backend.name]
        assert loader.document_count("s") == expected

    def test_flush_bumps_generation(self, backend):
        loader = WarehouseLoader(backend)
        before = loader.generation
        with loader.bulk_session() as session:
            session.add("s", "c", "k", doc("x"))
        assert loader.generation > before

    def test_empty_session_is_a_noop(self, backend):
        loader = WarehouseLoader(backend)
        before = loader.generation
        with loader.bulk_session() as session:
            pass
        assert session.flushes == 0
        assert loader.generation == before

    def test_rejects_batch_size_zero(self, backend):
        loader = WarehouseLoader(backend)
        with pytest.raises(ValueError):
            loader.bulk_session(batch_size=0)

    def test_add_transformed_serial(self, backend):
        loader = WarehouseLoader(backend)
        items = [("c", f"k{i}", doc(str(i))) for i in range(5)]
        with loader.bulk_session(batch_size=2) as session:
            count = session.add_transformed("s", items, lambda item: item)
        assert count == 5
        assert loader.document_count("s") == 5

    def test_remove_matches_any_collection(self, backend):
        loader = WarehouseLoader(backend)
        loader.store_document("s", "inv", "a", doc("1"))
        loader.store_document("s", "hum", "b", doc("2"))
        with loader.bulk_session() as session:
            session.remove("s", "a")
            session.remove("s", "missing")
        assert loader.doc_ids("s", "inv") == []
        assert loader.document_count("s") == 1

    def test_remove_and_add_apply_in_call_order(self, backend):
        loader = WarehouseLoader(backend)
        loader.store_document("s", "c", "kept", doc("old"))
        loader.store_document("s", "c", "gone", doc("old"))
        with loader.bulk_session(batch_size=1) as session:
            session.remove("s", "kept")
            session.add("s", "c", "kept", doc("new"))     # re-added
            session.add("s", "c", "gone", doc("new"))     # flushed...
            session.remove("s", "gone")                   # ...then gone
        assert loader.document_count("s") == 1
        values = backend.execute("SELECT value FROM text_values")
        assert values == [("new",)]

    def test_snapshot_commits_with_the_rows(self, backend):
        loader = WarehouseLoader(backend)
        loader.save_snapshot("gone", "r0", {})
        with loader.bulk_session() as session:
            session.add("s", "c", "k", doc("x"))
            session.save_snapshot("s", "r1", {"k": "f1"})
            session.delete_snapshot("gone")
        assert loader.load_snapshots() == {"s": ("r1", {"k": "f1"})}

    def test_one_commit_per_session(self, backend):
        commits = []
        real_commit = backend.commit
        backend.commit = lambda: commits.append(1) or real_commit()
        loader = WarehouseLoader(backend)
        loader.store_document("s", "c", "seed", doc("x"))
        commits.clear()
        with loader.bulk_session(batch_size=2) as session:
            for i in range(5):
                session.add("s", "c", f"k{i}", doc(str(i)))
            session.remove("s", "seed")
            session.save_snapshot("s", "r1", {})
        assert session.flushes == 3
        assert len(commits) == 1


def secondary_indexes(backend) -> set[str]:
    """Names of the ``idx_*`` indexes present, on either engine."""
    if backend.name == "sqlite":
        names = [row[0] for row in backend.execute(
            "SELECT name FROM sqlite_master WHERE type = 'index'")]
    else:
        names = [name for table in backend.catalog.tables.values()
                 for name in table.indexes]
    return {name for name in names if name.startswith("idx_")}


class TestDeferredIndexes:
    def test_initial_load_comes_out_fully_indexed(self, backend, corpus):
        Warehouse(backend=backend).load_corpus(corpus)
        assert len(secondary_indexes(backend)) == len(CREATE_INDEXES)

    def test_bare_table_warehouse_stays_bare(self, backend, corpus):
        """E6's no-index leg: the session used to "rebuild" the full
        index set over a warehouse created without one."""
        warehouse = Warehouse(backend=backend,
                              options=SchemaOptions(with_indexes=False))
        assert secondary_indexes(backend) == set()
        warehouse.load_corpus(corpus)
        assert warehouse.loader.document_count() > 0
        assert secondary_indexes(backend) == set()


class TestLoaderGeneration:
    def test_store_and_remove_bump_generation(self, backend):
        loader = WarehouseLoader(backend)
        g0 = loader.generation
        loader.store_document("s", "c", "k", doc("x"))
        g1 = loader.generation
        loader.remove_document("s", "c", "k")
        g2 = loader.generation
        assert g0 < g1 < g2

    def test_snapshot_only_session_keeps_generation(self, backend):
        """Only sessions that store or remove documents invalidate
        compiled queries; saving a snapshot changes no answer."""
        loader = WarehouseLoader(backend)
        g0 = loader.generation
        loader.save_snapshot("s", "r1", {})
        assert loader.generation == g0

    def test_failed_session_bumps_generation(self, backend):
        """Readers on the writer's connection may have compiled
        against flushed rows the rollback removes."""
        loader = WarehouseLoader(backend)
        g0 = loader.generation
        with pytest.raises(RuntimeError):
            with loader.bulk_session(batch_size=1) as session:
                session.add("s", "c", "k", doc("x"))
                raise RuntimeError("boom")
        assert loader.generation > g0
