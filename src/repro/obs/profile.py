"""One-shot query profiling.

:func:`profile_query` runs the warehouse's own query pipeline — parse,
check, compile, execute (with per-statement backend recording) — plus
tagging against any warehouse, whether or not it was constructed with
tracing, and returns a :class:`ProfileReport`. The warehouse's backend
is swapped for an instrumented wrapper only for the duration of the
call, so profiling a production warehouse adds no permanent overhead.

This is the engine behind ``xomatiq profile`` and
``reproduce.py --profile``; :func:`format_profile` renders the report
the way the paper's authors read Oracle's plans — stage timings first,
then every statement with its plan.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.backend import InstrumentedBackend
from repro.obs.trace import Span, Tracer
from repro.results.resultset import QueryResult


@dataclass
class ProfileReport:
    """Everything one profiled query run produced."""

    query: str
    backend: str
    trace: Span
    result: QueryResult

    @property
    def rows(self) -> int:
        """Result row count."""
        return len(self.result)

    @property
    def stages(self) -> dict[str, float]:
        """Stage name → milliseconds (top-level pipeline stages)."""
        return {child.name: child.duration_ms
                for child in self.trace.children}

    def statement_count(self) -> int:
        """SQL statements executed across the whole run."""
        return self.trace.total_counter("statements")


def profile_query(warehouse, text: str,
                  explain: bool = True) -> ProfileReport:
    """Profile one query against ``warehouse``.

    Runs the warehouse's own pipeline (:meth:`XomatiQ.answer
    <repro.engine.XomatiQ.answer>`) under a private tracer, then tags
    the result inside a ``tag`` span. A warm compiled-query cache shows
    up as a ``cache.hit`` counter on the root span and no stage spans
    but ``tag`` — the amortization the repeated-query benchmarks
    measure.

    ``explain=True`` additionally captures the engine's plan for every
    SELECT (costs an extra planner pass per statement — and on minidb a
    full extra execution — so benchmarks should pass ``False``).
    """
    tracer = Tracer()
    inner = warehouse.backend
    if isinstance(inner, InstrumentedBackend):
        inner = inner.inner
    instrumented = InstrumentedBackend(inner, tracer,
                                       capture_explain=explain)
    original = warehouse.backend
    warehouse.backend = instrumented
    try:
        with tracer.span("query", query=text,
                         backend=instrumented.name) as root:
            result, __, __ = warehouse.xomatiq.answer(text, tracer, root)
            with tracer.span("tag"):
                result.to_xml()
    finally:
        warehouse.backend = original
    result.trace = root
    return ProfileReport(query=text, backend=instrumented.name,
                         trace=root, result=result)


def format_profile(report: ProfileReport, sql: bool = True,
                   max_statements: int | None = None) -> str:
    """Human-readable rendering of one profile."""
    lines = [f"profile [{report.backend}]: {report.rows} rows, "
             f"{report.trace.duration_ms:.2f} ms total"]
    lines.append("stages:")
    for child in report.trace.children:
        _render_span(child, lines, indent=1)
    if sql:
        statements = report.trace.all_statements()
        if max_statements is not None:
            shown = statements[:max_statements]
        else:
            shown = statements
        total_ms = sum(record.duration_ms for record in statements)
        lines.append(f"sql: {len(statements)} statement(s), "
                     f"{total_ms:.2f} ms")
        for index, record in enumerate(shown, 1):
            lines.append(
                f"  [{index}] {record.kind} x{record.executions} "
                f"params={record.param_count} rows={record.row_count} "
                f"{record.duration_ms:.2f} ms")
            for sql_line in record.sql.splitlines():
                lines.append(f"      {sql_line}")
            for plan_line in record.plan:
                lines.append(f"      plan: {plan_line}")
        if len(shown) < len(statements):
            lines.append(f"  ... {len(statements) - len(shown)} more")
    return "\n".join(lines)


def _render_span(span: Span, lines: list[str], indent: int) -> None:
    pad = "  " * indent
    counters = " ".join(f"{key}={value}"
                        for key, value in sorted(span.counters.items()))
    suffix = f"   {counters}" if counters else ""
    lines.append(f"{pad}{span.name:<12} {span.duration_ms:>9.2f} ms"
                 f"{suffix}")
    for child in span.children:
        _render_span(child, lines, indent + 1)
