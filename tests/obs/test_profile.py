"""Profiling, EXPLAIN capture, JSON export, and the hot-path guarantee
(no tracer allocated unless asked for)."""

import json

import pytest

from repro.engine import Warehouse
from repro.obs import (
    NULL_TRACER,
    InstrumentedBackend,
    export_profiles,
    format_profile,
    profile_to_dict,
    span_to_dict,
)
from repro.obs.backend import statement_kind
from repro.xmlkit import parse_document

QUERY = ('FOR $a IN document("db.c")/r/item '
         'WHERE $a/name = "alpha" RETURN $a//name')


@pytest.fixture
def small_warehouse(backend):
    warehouse = Warehouse(backend=backend)
    warehouse.loader.store_document(
        "db", "c", "k1",
        parse_document("<r><item><name>alpha</name></item>"
                       "<item><name>beta</name></item></r>"))
    return warehouse


class TestHotPathDefault:
    """Tracing stays opt-in; only the (cheap) metrics plane is
    always on, and ``metrics=False`` removes even that."""

    def test_no_tracer_allocated_by_default(self, backend):
        warehouse = Warehouse(backend=backend)
        assert warehouse.tracer is NULL_TRACER
        assert warehouse.loader.tracer is NULL_TRACER
        # metrics are on by default: backend wrapped, but no tracer
        assert isinstance(warehouse.backend, InstrumentedBackend)
        assert warehouse.backend.tracer is NULL_TRACER

    def test_metrics_false_leaves_backend_unwrapped(self, backend):
        warehouse = Warehouse(backend=backend, metrics=False)
        assert warehouse.tracer is NULL_TRACER
        assert warehouse.backend is backend  # not wrapped
        assert not isinstance(warehouse.backend, InstrumentedBackend)
        assert not warehouse.metrics.enabled

    def test_connect_without_trace_passes_no_tracer(self, backend):
        from repro.datahounds import InMemoryRepository
        warehouse = Warehouse(backend=backend)
        hound = warehouse.connect(InMemoryRepository())
        assert hound.tracer is NULL_TRACER


class TestProfileQuery:
    def test_profile_reports_all_stages(self, small_warehouse):
        report = small_warehouse.profile(QUERY)
        assert list(report.stages) == ["parse", "check", "compile",
                                       "execute", "tag"]
        assert all(ms >= 0 for ms in report.stages.values())
        assert report.rows == 1
        assert report.statement_count() > 0
        assert report.backend in ("sqlite", "minidb")

    def test_profile_restores_uninstrumented_backend(self,
                                                     small_warehouse):
        original = small_warehouse.backend
        small_warehouse.profile(QUERY)
        assert small_warehouse.backend is original

    def test_explain_plans_captured_for_selects(self, small_warehouse):
        report = small_warehouse.profile(QUERY, explain=True)
        selects = [record for record in report.trace.all_statements()
                   if record.kind == "SELECT"]
        assert selects
        assert all(record.plan for record in selects)

    def test_explain_off_captures_no_plans(self, small_warehouse):
        report = small_warehouse.profile(QUERY, explain=False)
        assert all(not record.plan
                   for record in report.trace.all_statements())

    def test_result_carries_trace(self, small_warehouse):
        report = small_warehouse.profile(QUERY)
        assert report.result.trace is report.trace

    def test_format_profile_renders_stages_and_sql(self,
                                                   small_warehouse):
        report = small_warehouse.profile(QUERY)
        text = format_profile(report)
        for stage in ("parse", "check", "compile", "execute", "tag"):
            assert stage in text
        assert "SELECT" in text
        assert "plan:" in text

    def test_format_profile_says_a_cached_query_was_a_hit(
            self, small_warehouse):
        cold = format_profile(small_warehouse.profile(QUERY))
        warm = format_profile(small_warehouse.profile(QUERY))
        assert "cache.miss=1" in cold.splitlines()[0]
        header = warm.splitlines()[0]
        assert "cache.hit=1" in header and "cache.miss" not in header


class TestExport:
    def test_span_dict_schema(self, small_warehouse):
        report = small_warehouse.profile(QUERY)
        data = span_to_dict(report.trace)
        assert data["name"] == "query"
        assert set(data) == {"name", "duration_ms", "meta", "counters",
                             "statements", "children", "span_id",
                             "parent_id", "trace_id", "start_ms"}
        assert data["trace_id"]          # roots mint a trace id
        assert data["start_ms"] == 0.0   # offsets are root-relative
        child_names = [child["name"] for child in data["children"]]
        assert child_names == ["parse", "check", "compile", "execute",
                               "tag"]
        json.dumps(data)  # must be JSON-serializable

    def test_profile_dict_rollup(self, small_warehouse):
        report = small_warehouse.profile(QUERY)
        data = profile_to_dict(report)
        assert data["rows"] == 1
        assert data["sql_statements"] == report.statement_count()
        assert set(data["stages"]) == {"parse", "check", "compile",
                                       "execute", "tag"}

    def test_export_profiles_writes_tagged_file(self, small_warehouse,
                                                tmp_path):
        report = small_warehouse.profile(QUERY)
        out = tmp_path / "profile.json"
        payload = export_profiles([report], out)
        on_disk = json.loads(out.read_text(encoding="utf-8"))
        assert on_disk == payload
        assert on_disk["format"] == "xomatiq-profile/1"
        assert len(on_disk["profiles"]) == 1

    def test_summarize_ingests_profile_export(self, small_warehouse,
                                              tmp_path, capsys):
        import importlib.util
        from pathlib import Path
        spec = importlib.util.spec_from_file_location(
            "summarize", Path(__file__).resolve().parents[2]
            / "benchmarks" / "summarize.py")
        summarize = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(summarize)

        report = small_warehouse.profile(QUERY)
        out = tmp_path / "profile.json"
        export_profiles([report], out)
        assert summarize.main(["summarize.py", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "profile [" in printed
        assert "execute" in printed


class TestInstrumentedBackendWrapper:
    def test_statement_kind(self):
        assert statement_kind("  select 1") == "SELECT"
        assert statement_kind("INSERT INTO t VALUES (?)") == "INSERT"
        assert statement_kind("") == ""

    def test_executemany_recorded_as_batch(self, backend):
        from repro.obs import Tracer
        tracer = Tracer()
        instrumented = InstrumentedBackend(backend, tracer)
        instrumented.execute("CREATE TABLE t (x INTEGER)")
        with tracer.span("batch") as span:
            instrumented.executemany("INSERT INTO t (x) VALUES (?)",
                                     [(1,), (2,), (3,)])
        assert span.counters["statements"] == 3
        assert span.statements[0].executions == 3
        assert span.statements[0].kind == "INSERT"
        rows = instrumented.execute("SELECT COUNT(*) FROM t")
        assert rows[0][0] == 3

    def test_extras_delegate(self, backend):
        from repro.obs import Tracer
        instrumented = InstrumentedBackend(backend, Tracer())
        assert instrumented.name == backend.name
        instrumented.analyze()  # both engines expose analyze


FIG8 = '''FOR $a IN document("hlx_embl.inv")/hlx_n_sequence,
     $b IN document("hlx_sprot.all")/hlx_n_sequence
WHERE contains ($a, "cdc6", any)
AND   contains ($b, "cdc6", any)
RETURN
     $b//sprot_accession_number,
     $a//embl_accession_number'''

FIG11 = '''FOR $a IN document("hlx_embl.inv")/hlx_n_sequence/db_entry,
    $b IN document("hlx_enzyme.DEFAULT")/hlx_enzyme/db_entry
WHERE $a//qualifier[@qualifier_type = "EC_number"] = $b/enzyme_id
RETURN $Accession_Number = $a//embl_accession_number,
       $Accession_Description = $a//description'''


class TestFigureQueriesProfile:
    """Acceptance: the paper's Figure 8 keyword query and Figure 11
    join profile end to end on both backends — per-stage timings,
    per-statement counters, captured plans."""

    @pytest.mark.parametrize("query", [FIG8, FIG11],
                             ids=["fig8", "fig11"])
    def test_profile_figure_query(self, warehouse, query):
        report = warehouse.profile(query)
        assert report.rows > 0
        assert list(report.stages) == ["parse", "check", "compile",
                                       "execute", "tag"]
        assert report.statement_count() > 0
        selects = [record for record in report.trace.all_statements()
                   if record.kind == "SELECT"]
        assert selects and all(record.plan for record in selects)
        # the executor's sub-phases are present with sane counters
        execute = report.trace.find("execute")
        assert [c.name for c in execute.children] == [
            "bindings", "values", "merge"]
        assert execute.find("bindings").counters["binding_tuples"] == \
            report.rows
