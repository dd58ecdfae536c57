"""Tracer/span unit tests and full-pipeline span coverage.

The pipeline coverage tests assert against minidb where statement
counts matter — it is fully deterministic (no statement cache warmup
differences, no engine-internal statements).
"""

import pytest

from repro.engine import Warehouse
from repro.obs import InstrumentedBackend, Tracer
from repro.relational import MiniDbBackend
from repro.xmlkit import parse_document

PIPELINE_STAGES = ["parse", "check", "compile", "execute"]
EXECUTE_PHASES = ["bindings", "values", "merge"]


class TestTracerUnit:
    def test_nested_spans_form_a_tree(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner_1"):
                pass
            with tracer.span("inner_2"):
                tracer.count("things", 3)
        assert len(tracer.spans) == 1
        outer = tracer.spans[0]
        assert [c.name for c in outer.children] == ["inner_1", "inner_2"]
        assert outer.find("inner_2").counters == {"things": 3}

    def test_span_timings_are_monotonic_and_nested(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        outer = tracer.spans[0]
        inner = outer.children[0]
        assert outer.start <= inner.start <= inner.end <= outer.end
        assert outer.duration_s >= inner.duration_s >= 0

    def test_exception_still_closes_span(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("doomed"):
                raise ValueError("boom")
        assert tracer.spans[0].end is not None
        assert tracer.current is None

    def test_count_outside_span_lands_in_untracked(self):
        tracer = Tracer()
        tracer.count("orphan", 2)
        assert tracer.spans[0].name == "(untracked)"
        assert tracer.spans[0].counters == {"orphan": 2}

    def test_statement_outside_span_lands_in_untracked(self):
        tracer = Tracer()
        backend = InstrumentedBackend(MiniDbBackend(), tracer)
        backend.execute("CREATE TABLE t (x INTEGER)")
        assert tracer.spans[0].name == "(untracked)"
        assert tracer.spans[0].counters["statements"] == 1


class TestTracerThreadSafety:
    """Regression: the open-span stack was one shared list, so spans
    opened by worker threads nested under whatever the main thread had
    open (or popped the wrong frame entirely). Cross-thread parenting
    through the federation scatter pool is covered end to end by
    ``test_trace_federation::TestFederatedQueryTrace::
    test_single_tree_with_shard_subqueries``."""

    def test_concurrent_spans_never_cross_threads(self):
        import threading

        tracer = Tracer()
        barrier = threading.Barrier(4)
        errors = []

        def work(index):
            try:
                barrier.wait()
                for __ in range(200):
                    with tracer.span(f"outer-{index}") as outer:
                        with tracer.span(f"inner-{index}") as inner:
                            assert tracer.current is inner
                        assert tracer.current is outer
                    assert tracer.current is None
            except Exception as exc:   # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(i,))
                   for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        # every span is top-level in its own thread: 4 threads x 200
        assert len(tracer.spans) == 800
        for span in tracer.spans:
            assert span.end is not None
            # children belong to the same worker as their parent
            (child,) = span.children
            assert child.name.split("-")[1] == span.name.split("-")[1]


class TestUntrackedSpanClose:
    """Regression: the ``(untracked)`` catch-all span was never closed,
    so exports rendered a nonsense duration."""

    def test_finish_closes_untracked_spans(self):
        tracer = Tracer()
        tracer.count("orphan")
        (span,) = tracer.spans
        assert span.end is None
        tracer.finish()
        assert span.end is not None
        assert span.duration_s >= 0

    def test_open_span_renders_null_duration(self):
        from repro.obs import span_to_dict
        tracer = Tracer()
        tracer.count("orphan")
        rendered = span_to_dict(tracer.spans[0])
        assert rendered["duration_ms"] is None

    def test_tracer_to_dicts_finishes_first(self):
        from repro.obs import tracer_to_dicts
        tracer = Tracer()
        tracer.count("orphan")
        (rendered,) = tracer_to_dicts(tracer)
        assert rendered["name"] == "(untracked)"
        assert rendered["duration_ms"] is not None


class _CountingBackend:
    """Sits *under* the instrumented wrapper and counts what actually
    reaches the engine — the ground truth the tracer must match."""

    def __init__(self, inner):
        self.inner = inner
        self.execute_calls = 0
        self.executemany_statements = 0

    @property
    def name(self):
        return self.inner.name

    def execute(self, sql, params=()):
        self.execute_calls += 1
        return self.inner.execute(sql, params)

    def executemany(self, sql, params_seq):
        count = self.inner.executemany(sql, params_seq)
        self.executemany_statements += count
        return count

    def __getattr__(self, item):
        return getattr(self.inner, item)


@pytest.fixture
def traced_pair():
    counting = _CountingBackend(MiniDbBackend())
    warehouse = Warehouse(backend=counting, trace=True)
    warehouse.loader.store_document(
        "db", "c", "k1",
        parse_document("<r><item><name>alpha</name></item>"
                       "<item><name>beta</name></item></r>"))
    warehouse.loader.store_document(
        "db", "c", "k2",
        parse_document("<r><item><name>gamma</name></item></r>"))
    return warehouse, counting


class TestPipelineSpans:
    QUERY = ('FOR $a IN document("db.c")/r/item '
             'WHERE $a/name = "alpha" RETURN $a//name')

    def test_every_stage_has_a_span(self, traced_pair):
        warehouse, __ = traced_pair
        result = warehouse.query(self.QUERY)
        root = result.trace
        assert root is not None and root.name == "query"
        assert [c.name for c in root.children] == PIPELINE_STAGES
        execute = root.find("execute")
        assert [c.name for c in execute.children] == EXECUTE_PHASES

    def test_stage_timings_monotonic_and_nested(self, traced_pair):
        warehouse, __ = traced_pair
        root = warehouse.query(self.QUERY).trace
        previous_end = root.start
        for child in root.children:
            assert child.start >= previous_end - 1e-9
            assert child.end >= child.start
            previous_end = child.end
        assert root.end >= previous_end
        execute = root.find("execute")
        for phase in execute.children:
            assert execute.start <= phase.start <= phase.end <= execute.end

    def test_backend_counters_equal_statements_actually_run(
            self, traced_pair):
        warehouse, counting = traced_pair
        before_execute = counting.execute_calls
        before_many = counting.executemany_statements
        result = warehouse.query(self.QUERY)
        ran = (counting.execute_calls - before_execute) + (
            counting.executemany_statements - before_many)
        assert result.trace.total_counter("statements") == ran
        assert ran > 0

    def test_load_counters_match_rows_stored(self, traced_pair):
        warehouse, __ = traced_pair
        tracer = warehouse.tracer
        elements = sum(span.counters.get("rows.elements", 0)
                       for top in tracer.spans for span in top.walk())
        expected = warehouse.stats()["elements"]
        assert elements == expected

    def test_result_rows_counter(self, traced_pair):
        warehouse, __ = traced_pair
        result = warehouse.query(self.QUERY)
        assert result.trace.find("execute").counters["result_rows"] == \
            len(result)

    def test_sql_text_and_param_counts_recorded(self, traced_pair):
        warehouse, __ = traced_pair
        result = warehouse.query(self.QUERY)
        statements = result.trace.all_statements()
        assert statements, "no statements recorded"
        for record in statements:
            assert record.sql.strip()
            assert record.kind == "SELECT"
            assert record.param_count >= 0
            assert record.duration_s >= 0

    def test_untraced_warehouse_has_no_trace(self):
        warehouse = Warehouse(backend=MiniDbBackend())
        warehouse.loader.store_document(
            "db", "c", "k1", parse_document("<r><name>x</name></r>"))
        result = warehouse.query(
            'FOR $a IN document("db.c")/r RETURN $a//name')
        assert result.trace is None


class TestHoundSpans:
    def test_load_produces_phase_spans_and_throughput(self):
        from repro.datahounds import InMemoryRepository
        from repro.synth import build_corpus
        corpus = build_corpus(seed=7, enzyme_count=5, embl_count=5,
                              sprot_count=5)
        repository = InMemoryRepository()
        corpus.publish_to(repository, "r1")
        warehouse = Warehouse(backend=MiniDbBackend(), trace=True)
        warehouse.refresh(repository, "hlx_enzyme")
        load_span = warehouse.tracer.last_span("load")
        assert load_span is not None
        names = [c.name for c in load_span.children]
        for phase in ("fetch", "parse", "diff", "transform", "store",
                      "optimize"):
            assert phase in names
        assert load_span.counters["entries"] == 5
        assert load_span.counters["parsed"] == 5
        assert load_span.counters["loaded"] == 5
        assert load_span.meta["entries_per_s"] > 0
