"""Unit tests for the warehouse loader (both backends via fixture)."""

from repro.shredding import WarehouseLoader
from repro.xmlkit import parse_document


def doc(body: str):
    return parse_document(f"<r><v>{body}</v></r>")


class TestStoreAndRemove:
    def test_store_assigns_increasing_doc_ids(self, backend):
        loader = WarehouseLoader(backend)
        first = loader.store_document("s", "c", "k1", doc("a"))
        second = loader.store_document("s", "c", "k2", doc("b"))
        assert second == first + 1

    def test_store_same_key_replaces(self, backend):
        loader = WarehouseLoader(backend)
        loader.store_document("s", "c", "k1", doc("old"))
        loader.store_document("s", "c", "k1", doc("new"))
        assert loader.document_count("s") == 1
        values = backend.execute(
            "SELECT value FROM text_values")
        assert ("new",) in values and ("old",) not in values

    def test_remove_document_deletes_all_rows(self, backend):
        loader = WarehouseLoader(backend)
        loader.store_document("s", "c", "k1", doc("x"))
        loader.remove_document("s", "c", "k1")
        for table in ("documents", "elements", "text_values", "keywords"):
            rows = backend.execute(f"SELECT COUNT(*) FROM {table}")
            assert rows[0][0] == 0

    def test_remove_with_empty_collection_matches_any(self, backend):
        loader = WarehouseLoader(backend)
        loader.store_document("s", "inv", "k1", doc("x"))
        loader.remove_document("s", "", "k1")
        assert loader.document_count("s") == 0

    def test_counts_by_source(self, backend):
        loader = WarehouseLoader(backend)
        loader.store_document("s1", "c", "a", doc("1"))
        loader.store_document("s2", "c", "b", doc("2"))
        assert loader.document_count() == 2
        assert loader.document_count("s1") == 1

    def test_doc_ids_filterable_by_collection(self, backend):
        loader = WarehouseLoader(backend)
        loader.store_document("s", "inv", "a", doc("1"))
        loader.store_document("s", "hum", "b", doc("2"))
        assert len(loader.doc_ids("s")) == 2
        assert len(loader.doc_ids("s", "inv")) == 1

    def test_doc_id_continues_after_reattach(self, backend):
        loader = WarehouseLoader(backend)
        loader.store_document("s", "c", "a", doc("1"))
        reattached = WarehouseLoader(backend, create=False)
        next_id = reattached.store_document("s", "c", "b", doc("2"))
        assert next_id == 2
