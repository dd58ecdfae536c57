"""Unit tests for tabular result export."""

from repro.results import BoundNode, QueryResult, ResultRow, to_csv, to_tsv, write_tsv


def make_result():
    result = QueryResult(columns=["enzyme_id", "names"], variables=["a"])
    first = ResultRow(bindings={"a": BoundNode(1, 0)})
    first.values = {"enzyme_id": ["1.1.1.1"], "names": ["alpha", "beta"]}
    second = ResultRow(bindings={"a": BoundNode(2, 0)})
    second.values = {"enzyme_id": ["2.2.2.2"], "names": []}
    result.rows = [first, second]
    return result


class TestExports:
    def test_tsv_shape(self):
        lines = to_tsv(make_result()).splitlines()
        assert lines[0] == "enzyme_id\tnames"
        assert lines[1] == "1.1.1.1\talpha; beta"
        assert lines[2] == "2.2.2.2\t"

    def test_csv_quotes_delimiters_in_values(self):
        result = make_result()
        result.rows[0].values["names"] = ["with, comma"]
        lines = to_csv(result).splitlines()
        assert lines[1] == '1.1.1.1,"with, comma"'

    def test_write_tsv(self, tmp_path):
        path = tmp_path / "out.tsv"
        count = write_tsv(make_result(), path)
        assert count == 2
        assert path.read_text().startswith("enzyme_id\t")

    def test_result_methods_delegate(self):
        result = make_result()
        assert result.to_tsv().startswith("enzyme_id\t")
        assert result.to_csv().startswith("enzyme_id,")

    def test_exports_from_live_query(self, warehouse):
        result = warehouse.query(
            'FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme '
            'WHERE contains($a//catalytic_activity, "ketone") '
            'RETURN $a//enzyme_id, $a//alternate_name')
        tsv = result.to_tsv()
        assert tsv.splitlines()[0] == "enzyme_id\talternate_name"
        assert len(tsv.splitlines()) == len(result) + 1


class TestRemoveSource:
    def test_remove_source_clears_all_rows(self, warehouse):
        removed = warehouse.remove_source("hlx_sprot")
        assert removed > 0
        assert not warehouse.document_exists("hlx_sprot", None)
        # other sources untouched
        assert warehouse.document_exists("hlx_enzyme", "DEFAULT")
        stats = warehouse.stats()
        assert "documents:hlx_sprot" not in stats

    def test_remove_missing_source_is_zero(self, warehouse):
        assert warehouse.remove_source("never_loaded") == 0

    def test_remove_all_sources_leaves_zero_residue(self, warehouse):
        """Batched deletes must clear every generic-schema table —
        derived from TABLE_NAMES so a new table can't leak rows."""
        from repro.relational.schema import TABLE_NAMES
        for source in ("hlx_enzyme", "hlx_embl", "hlx_sprot", "hlx_omim"):
            warehouse.remove_source(source)
        stats = warehouse.stats()
        for table in TABLE_NAMES:
            assert stats[table] == 0, f"{table} left {stats[table]} rows"

    def test_remove_source_chunks_batched_deletes(self, warehouse,
                                                  monkeypatch):
        """Chunked IN-lists: force multiple chunks per table."""
        from repro.relational.schema import TABLE_NAMES
        from repro.shredding import loader
        monkeypatch.setattr(loader, "_IN_CHUNK", 3)
        backend = warehouse.loader.backend
        execute = backend.execute
        deletes: dict[str, int] = {}

        def counting(sql, params=()):
            if sql.startswith("DELETE FROM ") and " IN (" in sql:
                table = sql.split()[2]
                deletes[table] = deletes.get(table, 0) + 1
            return execute(sql, params)

        monkeypatch.setattr(backend, "execute", counting)
        removed = warehouse.remove_source("hlx_enzyme")
        assert removed > 3
        assert set(deletes) == set(TABLE_NAMES)
        assert all(count > 1 for count in deletes.values()), deletes
        assert not warehouse.document_exists("hlx_enzyme", None)
        assert warehouse.stats()["documents"] > 0  # others intact
