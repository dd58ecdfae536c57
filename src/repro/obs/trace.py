"""Nested-span tracing.

A :class:`Tracer` maintains a stack of open :class:`Span` objects.
Entering ``tracer.span("compile")`` opens a child of the innermost
open span; on exit the span records its wall-clock duration. Anything
that happens while a span is open — counter increments, SQL statement
records from :class:`~repro.obs.backend.InstrumentedBackend` — attaches
to that span, so the finished tree answers "where did the time go"
stage by stage.

Spans are plain data (no weak references, no globals); a finished span
tree can be kept on a :class:`~repro.results.resultset.QueryResult`,
exported to JSON, or rendered as text long after the tracer is gone.

Tracing off is :data:`NULL_TRACER`, not ``None``: every layer holds a
tracer and opens its spans unconditionally, and the null tracer's
``span()`` hands back one shared inert scope (about a microsecond per
span), so there is no untraced copy of any pipeline.
"""

from __future__ import annotations

import itertools
import os
import re
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.obs.metrics import NULL_METRICS

#: process-unique id sequence; the 4-hex prefix keeps trace ids from
#: two processes (e.g. test workers) from colliding in merged output
_ids = itertools.count(1)
_SEED = os.urandom(2).hex()

#: inbound request ids are honored only when they are short and safe to
#: echo into headers, logs, and Prometheus exemplars verbatim
_REQUEST_ID_RE = re.compile(r"^[A-Za-z0-9_.:-]{1,64}$")


def new_span_id() -> str:
    """A process-unique span id (hex, constant width)."""
    return f"{next(_ids):012x}"


def new_trace_id() -> str:
    """A process-unique trace id (hex, constant width)."""
    return _SEED + f"{next(_ids):012x}"


@dataclass(frozen=True)
class TraceContext:
    """Propagatable identity of one request: which trace a piece of
    work belongs to and which span is its parent.

    Minted once per HTTP request by the service layer; handed across
    thread boundaries explicitly (worker pools cannot inherit the
    coordinator's thread-local span stack), and quoted in Prometheus
    exemplars and slow-query records so metrics, logs, and traces all
    share one id.
    """

    trace_id: str
    span_id: str = ""
    sampled: bool = True

    @classmethod
    def mint(cls, request_id: str | None = None,
             sampled: bool = True) -> "TraceContext":
        """Create a fresh context, honoring a caller-supplied request
        id as the trace id when it is safe to echo verbatim."""
        if request_id and _REQUEST_ID_RE.match(request_id):
            return cls(trace_id=request_id, sampled=sampled)
        return cls(trace_id=new_trace_id(), sampled=sampled)


@dataclass(slots=True)
class StatementRecord:
    """One executed SQL statement (or one ``executemany`` batch).

    Slotted and allocation-lean: one of these is created per SQL
    statement on a traced warehouse, which is the hottest allocation
    site in the observability plane."""

    sql: str
    kind: str
    param_count: int
    row_count: int
    duration_s: float
    #: number of underlying statements (batch size for executemany)
    executions: int = 1
    #: captured EXPLAIN lines (empty unless plan capture is on)
    plan: tuple[str, ...] = ()
    extra: dict[str, object] | None = None

    @property
    def duration_ms(self) -> float:
        """Wall-clock milliseconds."""
        return self.duration_s * 1000.0


@dataclass(slots=True)
class Span:
    """One timed region of the pipeline."""

    name: str
    start: float
    end: float | None = None
    meta: dict[str, object] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)
    #: SQL statements executed while this span was innermost
    statements: list = field(default_factory=list)
    children: list["Span"] = field(default_factory=list)
    #: trace identity — every span in one request tree shares trace_id
    trace_id: str = ""
    span_id: str = ""
    parent_id: str = ""
    #: ident of the thread that opened the span (Chrome trace lane)
    tid: int = 0

    @property
    def duration_s(self) -> float:
        """Wall-clock seconds (0.0 while still open)."""
        return (self.end - self.start) if self.end is not None else 0.0

    @property
    def duration_ms(self) -> float:
        """Wall-clock milliseconds."""
        return self.duration_s * 1000.0

    def count(self, name: str, amount: int = 1) -> None:
        """Increment one of this span's counters."""
        self.counters[name] = self.counters.get(name, 0) + amount

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, pre-order."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> "Span | None":
        """First span named ``name`` in this subtree (pre-order)."""
        for span in self.walk():
            if span.name == name:
                return span
        return None

    def total_counter(self, name: str) -> int:
        """Sum of one counter over this subtree."""
        return sum(span.counters.get(name, 0) for span in self.walk())

    def all_statements(self) -> list:
        """Every statement record in this subtree, pre-order."""
        return [record for span in self.walk()
                for record in span.statements]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span({self.name!r}, {self.duration_ms:.2f}ms, "
                f"{len(self.children)} children)")


class _SpanScope:
    """Hand-rolled context manager for one open span.

    ``tracer.span(...)`` is the hottest allocation on a traced query
    (several spans per query, always-on in the service), and a
    generator-based ``@contextmanager`` costs a few times this class's
    enter/exit — enough to show up in the observability-overhead
    guardrail."""

    __slots__ = ("_tracer", "_span", "_stack")

    def __init__(self, tracer: "Tracer", span: Span, stack: list):
        self._tracer = tracer
        self._span = span
        self._stack = stack

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._stack.pop()
        span = self._span
        tracer = self._tracer
        span.end = tracer.clock()
        statements = span.statements
        if statements:
            # statement counters are aggregated once per span close
            # instead of once per statement — the per-statement dict
            # updates were a measurable slice of the tracing overhead
            executions = rows = 0
            for record in statements:
                executions += record.executions
                rows += record.row_count
            counters = span.counters
            counters["statements"] = (counters.get("statements", 0)
                                      + executions)
            counters["rows"] = counters.get("rows", 0) + rows
        tracer._span_seconds(span.name).observe(span.end - span.start)
        return False


class Tracer:
    """Produces span trees; one tracer serves one warehouse.

    Top-level spans (queries, loads) accumulate on :attr:`spans`;
    :meth:`record_statement` attaches backend activity to whatever span
    is innermost at the time. Statements executed while *no* span is
    open (ad-hoc catalog queries, for instance) land in a catch-all
    ``(untracked)`` span so nothing is silently dropped.

    The open-span stack is **thread-local**: a span opened in a
    federation scatter-pool thread nests under that thread's own spans
    (or under an explicit ``parent``), never under whatever the main
    thread happens to have open. The shared ``spans`` list and the
    per-thread catch-all spans are guarded by a lock.

    When :attr:`metrics` is a live
    :class:`repro.obs.metrics.MetricsRegistry` (the warehouse wires
    this up when both tracing and metrics are active), every finished
    span also feeds the ``trace.span_seconds{span=...}`` histogram, so
    traces and the always-on metrics plane agree by construction.
    """

    #: the one on/off predicate of the tracing sink (False on
    #: :class:`NullTracer`)
    enabled = True

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 metrics=NULL_METRICS, max_spans: int | None = None):
        self.clock = clock
        #: MetricsRegistry fed one sample per finished span
        self.metrics = metrics
        #: bound on retained top-level spans (None = unbounded); a
        #: long-running service must set this or ``spans`` grows with
        #: every request it serves
        self.max_spans = max_spans
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        #: per-thread catch-all spans, so concurrent counts never race
        #: on one shared Span's dicts
        self._untracked_spans: list[Span] = []
        #: span name → live trace.span_seconds histogram handle; the
        #: per-name registry lookup (label key + registry lock) is too
        #: expensive to repeat on every span exit
        self._span_histograms: dict[str, object] = {}
        self._span_histogram_source = None

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def current(self) -> Span | None:
        """The innermost open span of the calling thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    def current_context(self) -> TraceContext | None:
        """The calling thread's position in its trace, as a context
        that can be handed to another thread (or stamped on a log
        record). ``None`` when no span is open."""
        span = self.current
        if span is None:
            return None
        return TraceContext(trace_id=span.trace_id, span_id=span.span_id)

    def span(self, name: str, parent: Span | None = None,
             context: TraceContext | None = None,
             **meta) -> _SpanScope:
        """Open a span; nests under the calling thread's current span
        when one is open.

        ``parent`` attaches the span under an *explicit* parent even
        though that parent lives on another thread's stack — this is
        how scatter-gather and bulk-load worker threads join the
        coordinator's tree instead of starting orphaned trees of their
        own. ``context`` seeds a *root* span with an externally minted
        trace identity (the service layer's per-request
        :class:`TraceContext`); it is ignored unless this span starts a
        new tree on this thread. Roots without a context mint a fresh
        trace id, so every finished tree is addressable.
        """
        span = Span(name=name, start=self.clock(), meta=meta,
                    span_id=new_span_id(), tid=threading.get_ident())
        stack = self._stack()
        if parent is not None:
            span.trace_id = parent.trace_id
            span.parent_id = parent.span_id
            # list.append is atomic under the GIL, so worker threads
            # may attach to a shared parent without taking the lock
            parent.children.append(span)
        elif stack:
            top = stack[-1]
            span.trace_id = top.trace_id
            span.parent_id = top.span_id
            top.children.append(span)
        else:
            if context is not None:
                span.trace_id = context.trace_id
                span.parent_id = context.span_id
            else:
                # derive the root's trace id from its span id rather
                # than drawing (and formatting) a second counter value
                span.trace_id = _SEED + span.span_id
            with self._lock:
                self.spans.append(span)
                if (self.max_spans is not None
                        and len(self.spans) > self.max_spans):
                    del self.spans[:len(self.spans) - self.max_spans]
        stack.append(span)
        return _SpanScope(self, span, stack)

    def adopt_metrics(self, metrics) -> None:
        """Feed ``trace.span_seconds`` into ``metrics`` unless this
        tracer already feeds a live registry (a tracer shared across
        warehouses keeps the first one it was given)."""
        if not self.metrics.enabled:
            self.metrics = metrics

    def _span_seconds(self, name: str):
        """The live ``trace.span_seconds{span=name}`` handle, cached
        per name (and rebuilt if :attr:`metrics` is swapped out)."""
        if self.metrics is not self._span_histogram_source:
            self._span_histogram_source = self.metrics
            self._span_histograms = {}
        histogram = self._span_histograms.get(name)
        if histogram is None:
            histogram = self._span_histograms[name] = \
                self.metrics.histogram("trace.span_seconds", span=name)
        return histogram

    def count(self, name: str, amount: int = 1) -> None:
        """Increment a counter on the current span; counts arriving
        while no span is open land in the ``(untracked)`` catch-all."""
        span = self.current
        if span is None:
            span = self._untracked_span()
        span.count(name, amount)

    def record_statement(self, sql: str, kind: str, param_count: int,
                         row_count: int, duration_s: float,
                         executions: int = 1,
                         plan: tuple[str, ...] = ()) -> None:
        """Attach one backend statement, as a :class:`StatementRecord`,
        to the current span. The record is built here rather than by
        the caller, so :class:`NullTracer` never allocates one.

        For open stack spans this is append-only — the ``statements``
        / ``rows`` counters are rolled up once when the span closes
        (see :class:`_SpanScope`). The catch-all ``(untracked)`` span
        has no close, so it counts eagerly."""
        # positional construction: this runs once per statement
        record = StatementRecord(sql, kind, param_count, row_count,
                                 duration_s, executions, plan)
        stack = getattr(self._local, "stack", None)
        if stack:
            stack[-1].statements.append(record)
            return
        span = self._untracked_span()
        span.statements.append(record)
        span.count("statements", record.executions)
        span.count("rows", record.row_count)

    def last_span(self, name: str | None = None) -> Span | None:
        """Most recent finished top-level span (optionally by name)."""
        with self._lock:
            spans = list(self.spans)
        for span in reversed(spans):
            if name is None or span.name == name:
                return span
        return None

    def finish(self) -> None:
        """Close every still-open catch-all span (call before
        exporting — an open span's duration is meaningless, and JSON
        export renders open spans with ``duration_ms: null``)."""
        now = self.clock()
        with self._lock:
            for span in self._untracked_spans:
                if span.end is None:
                    span.end = now

    def _untracked_span(self) -> Span:
        span = getattr(self._local, "untracked", None)
        if span is None:
            span = Span(name="(untracked)", start=self.clock(),
                        span_id=new_span_id(), trace_id=new_trace_id(),
                        tid=threading.get_ident())
            self._local.untracked = span
            with self._lock:
                self.spans.append(span)
                self._untracked_spans.append(span)
        return span


class _NullSpan:
    """What every :class:`NullTracer` scope yields: it takes counts and
    annotations and keeps none. ``meta`` and ``counters`` hand out a
    fresh dict per access, so writes never pile up on the shared
    instance."""

    __slots__ = ()
    trace_id = ""
    duration_s = 0.0

    @property
    def meta(self) -> dict:
        return {}

    @property
    def counters(self) -> dict:
        return {}

    def count(self, name: str, amount: int = 1) -> None:
        pass


class _NullScope:
    """The one shared context manager of :meth:`NullTracer.span`."""

    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return _NULL_SPAN

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()
_NULL_SCOPE = _NullScope()


class NullTracer:
    """Tracing off: the part of the :class:`Tracer` surface the layers
    call, recording nothing.

    Use the :data:`NULL_TRACER` singleton. It has no instance state
    (``__slots__ = ()``), so nothing can be attached to it by mistake;
    :meth:`Warehouse.enable_tracing
    <repro.engine.Warehouse.enable_tracing>` is where a real tracer
    replaces it.
    """

    __slots__ = ()
    enabled = False
    spans: tuple = ()

    def span(self, name: str, parent=None, context=None,
             **meta) -> _NullScope:
        return _NULL_SCOPE

    def adopt_metrics(self, metrics) -> None:
        pass

    def record_statement(self, sql: str, kind: str, param_count: int,
                         row_count: int, duration_s: float,
                         executions: int = 1,
                         plan: tuple[str, ...] = ()) -> None:
        pass


NULL_TRACER = NullTracer()


def resolve_tracer(trace) -> "Tracer | NullTracer":
    """Normalize a user-facing ``trace`` argument (the
    :func:`~repro.obs.metrics.resolve_metrics` counterpart): ``None``/
    ``False`` → :data:`NULL_TRACER`, ``True`` → a fresh :class:`Tracer`,
    a tracer → itself."""
    if trace is None or trace is False:
        return NULL_TRACER
    if trace is True:
        return Tracer()
    return trace
