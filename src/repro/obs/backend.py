"""Instrumented backend wrapper.

:class:`InstrumentedBackend` sits between the warehouse and any
:class:`~repro.relational.backend.Backend` (SQLite or minidb) and
records, per statement: the SQL text, statement kind, parameter count,
result row count, wall-clock duration and — when enabled — the
engine's EXPLAIN output. Records flow into the active
:class:`~repro.obs.trace.Tracer` span, so a query's trace shows
exactly which SQL ran inside each pipeline stage.

The wrapper is dialect-agnostic: both backends expose ``explain()``
(SQLite prints ``EXPLAIN QUERY PLAN`` lines, minidb its executor's
plan notes), and everything else is delegated verbatim, including
backend-specific extras like ``analyze`` and ``last_plan``.
"""

from __future__ import annotations

import time
from typing import Iterable

from repro.obs.metrics import NULL_METRICS
from repro.obs.trace import NULL_TRACER
from repro.relational.backend import Backend, Params, Row


def statement_kind(sql: str) -> str:
    """First keyword of a statement (``SELECT``, ``INSERT``, ...)."""
    stripped = sql.lstrip()
    head = stripped.split(None, 1)[0] if stripped else ""
    return head.upper()


class InstrumentedBackend:
    """A :class:`Backend` that measures every statement it forwards.

    Two independent sinks, either or both live (the other is its null
    object):

    * ``tracer`` — every statement becomes a :class:`StatementRecord`
      on the innermost span,
    * ``metrics`` — per-kind statement counters and latency histograms
      in a :class:`repro.obs.metrics.MetricsRegistry`; this is the
      always-on path, so handles are cached per SQL text and each
      statement costs two clock reads plus one fused locked update
      (:class:`repro.obs.metrics.StatementTimer`).
    """

    def __init__(self, inner: Backend, tracer=NULL_TRACER,
                 capture_explain: bool = False, metrics=NULL_METRICS):
        self.inner = inner
        self.tracer = tracer
        self.metrics = metrics
        self.capture_explain = capture_explain
        self._clock = time.perf_counter
        #: kind → fused StatementTimer (statements/rows/latency)
        self._kind_handles: dict = {}
        #: sql text → (kind, timer) — compiled SQL strings are reused
        #: across calls (the compiled-query cache hands back the same
        #: objects), so the hot path is one dict hit instead of
        #: re-deriving the kind every statement
        self._sql_handles: dict = {}

    @property
    def name(self) -> str:
        """The wrapped engine's identifier (traces stay attributable)."""
        return self.inner.name

    def _handles(self, kind: str):
        timer = self._kind_handles.get(kind)
        if timer is None:
            timer = self._kind_handles[kind] = (
                self.metrics.statement_timer(kind))
        return timer

    # -- Backend protocol ---------------------------------------------------

    def _sql_entry(self, sql: str):
        kind = statement_kind(sql)
        entry = (kind, self._handles(kind))
        if len(self._sql_handles) < 4096:   # bound ad-hoc SQL growth
            self._sql_handles[sql] = entry
        return entry

    def execute(self, sql: str, params: Params = ()) -> list[Row]:
        """Forward one statement, recording text/params/rows/timing."""
        entry = self._sql_handles.get(sql)
        if entry is None:
            entry = self._sql_entry(sql)
        kind, timer = entry
        plan: tuple[str, ...] = ()
        if self.capture_explain and kind == "SELECT":
            plan = self._explain(sql, params)
        clock = self._clock
        start = clock()
        rows = self.inner.execute(sql, params)
        duration = clock() - start
        timer.record(len(rows), duration)
        try:
            param_count = len(params)
        except TypeError:
            param_count = len(tuple(params))
        self.tracer.record_statement(sql, kind, param_count, len(rows),
                                     duration, 1, plan)
        return rows

    def executemany(self, sql: str, params_seq: Iterable[Params]) -> int:
        """Forward a batch, recorded as one entry with its batch size.

        The parameter iterable streams straight through to the backend
        (which may itself chunk it) — instrumentation must not be the
        layer that materializes a multi-million-row batch."""
        width = 0

        def watched(sequence):
            nonlocal width
            for params in sequence:
                if not width:
                    try:
                        width = len(params)
                    except TypeError:
                        width = len(tuple(params))
                yield params

        kind = statement_kind(sql)
        start = self._clock()
        count = self.inner.executemany(sql, watched(params_seq))
        duration = self._clock() - start
        self._handles(kind).record(0, duration, executions=count)
        self.tracer.record_statement(sql, kind, width, 0, duration, count)
        return count

    def commit(self) -> None:
        """Delegate; commits are not statements, so not recorded."""
        self.inner.commit()

    def close(self) -> None:
        """Delegate."""
        self.inner.close()

    def explain(self, sql: str, params: Params = ()) -> list[str]:
        """Delegate plan extraction to the wrapped engine."""
        return list(self._explain(sql, params))

    # -- extras -------------------------------------------------------------

    def __getattr__(self, name: str):
        """Backend-specific extras (``analyze``, ``last_plan``,
        ``catalog``...) pass straight through."""
        return getattr(self.inner, name)

    def _explain(self, sql: str, params: Params) -> tuple[str, ...]:
        explain = getattr(self.inner, "explain", None)
        if explain is None:
            return ()
        try:
            return tuple(explain(sql, params))
        except Exception as exc:  # plan capture must never fail a query
            return (f"(explain failed: {exc})",)
