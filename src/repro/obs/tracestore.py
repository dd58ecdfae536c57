"""Bounded retention of finished request traces.

A :class:`TraceStore` is the service-side answer to "which request was
that?": a thread-safe ring buffer of finished span trees keyed by trace
id. Retention is deliberately two-tiered:

* **Head sampling** — a deterministic per-trace coin flip (hash of the
  trace id against ``sample_rate``) decides whether a routine trace is
  kept. Deterministic means the same trace id always gets the same
  verdict, so retried requests with a caller-supplied ``X-Request-Id``
  are either all kept or all dropped — no flapping.
* **Tail keep** — slow traces (root duration over ``slow_ms``) and
  error traces (5xx or an exception) are *always* kept, overriding the
  head decision. The traces you need most are exactly the ones random
  sampling is most likely to lose.

The ring is bounded (FIFO eviction), so a service can run forever with
a fixed memory budget. Exported formats:

* ``trace_to_dict`` — the ``xomatiq-trace/1`` JSON served by
  ``GET /traces/{id}`` (span schema from :mod:`repro.obs.export`).
* ``chrome_trace`` — Chrome ``trace_event`` JSON loadable in
  ``about:tracing`` or https://ui.perfetto.dev; spans become complete
  ("X") events on one lane per worker thread.
* ``format_trace`` — a text waterfall for ``xomatiq trace show``.
"""

from __future__ import annotations

import threading
import time
import zlib
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.obs.export import _jsonable, span_to_dict

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.trace import Span

#: format tag on every served trace payload
TRACE_FORMAT = "xomatiq-trace/1"


@dataclass
class TraceRecord:
    """One retained trace: the root span plus request-level identity
    that lives outside the span tree (HTTP status, wall-clock time)."""

    trace_id: str
    root: "Span"
    request_id: str = ""
    endpoint: str = ""
    status: int | None = None
    error: bool = False
    #: why the store kept it: "sampled", "slow", or "error"
    kept: str = "sampled"
    #: wall-clock epoch seconds at admission (root.start is monotonic)
    ts: float = field(default_factory=time.time)

    @property
    def duration_ms(self) -> float:
        return self.root.duration_ms

    @property
    def span_count(self) -> int:
        return sum(1 for _ in self.root.walk())


class TraceStore:
    """Thread-safe bounded ring of finished traces.

    ``offer`` is called once per request with the finished root span;
    the store decides keep-or-drop and evicts the oldest record when
    full. Lookups are by trace id; iteration is newest-first (the
    trace you are hunting is almost always recent).
    """

    def __init__(self, capacity: int = 256, sample_rate: float = 1.0,
                 slow_ms: float = 500.0):
        if capacity < 1:
            raise ValueError("TraceStore capacity must be >= 1")
        self.capacity = capacity
        self.sample_rate = sample_rate
        self.slow_ms = slow_ms
        self._records: OrderedDict[str, TraceRecord] = OrderedDict()
        self._lock = threading.Lock()
        #: admission tallies, exposed in ``GET /traces`` so the reader
        #: knows how much the sampler threw away
        self.offered = 0
        self.kept = 0

    def sampled(self, trace_id: str) -> bool:
        """Deterministic head-sampling verdict for one trace id."""
        if self.sample_rate >= 1.0:
            return True
        if self.sample_rate <= 0.0:
            return False
        bucket = zlib.crc32(trace_id.encode("utf-8")) / 0xFFFFFFFF
        return bucket < self.sample_rate

    def offer(self, root: "Span", request_id: str = "",
              endpoint: str = "", status: int | None = None,
              error: bool = False) -> TraceRecord | None:
        """Admit one finished trace; returns the record if kept."""
        slow = root.end is not None and root.duration_ms >= self.slow_ms
        is_error = error or (status is not None and status >= 500)
        if is_error:
            kept = "error"
        elif slow:
            kept = "slow"
        elif self.sampled(root.trace_id):
            kept = "sampled"
        else:
            kept = ""
        with self._lock:
            self.offered += 1
            if not kept:
                return None
            self.kept += 1
            record = TraceRecord(trace_id=root.trace_id, root=root,
                                 request_id=request_id,
                                 endpoint=endpoint, status=status,
                                 error=is_error, kept=kept)
            # same trace id twice (caller reused a request id): the
            # newer trace wins, matching "last write" intuition
            self._records.pop(root.trace_id, None)
            self._records[root.trace_id] = record
            while len(self._records) > self.capacity:
                self._records.popitem(last=False)
            return record

    def get(self, trace_id: str) -> TraceRecord | None:
        with self._lock:
            return self._records.get(trace_id)

    def records(self, limit: int | None = None) -> list[TraceRecord]:
        """Retained traces, newest first."""
        with self._lock:
            records = list(reversed(self._records.values()))
        return records[:limit] if limit is not None else records

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)


def trace_summary(record: TraceRecord) -> dict:
    """One line of ``GET /traces``: enough to pick a trace, no tree."""
    return {
        "trace_id": record.trace_id,
        "request_id": record.request_id,
        "endpoint": record.endpoint,
        "status": record.status,
        "error": record.error,
        "kept": record.kept,
        "ts": round(record.ts, 3),
        "duration_ms": round(record.duration_ms, 3),
        "spans": record.span_count,
        "root": record.root.name,
    }


def trace_to_dict(record: TraceRecord) -> dict:
    """Full trace payload served by ``GET /traces/{id}``."""
    return {
        "format": TRACE_FORMAT,
        "trace_id": record.trace_id,
        "request_id": record.request_id,
        "endpoint": record.endpoint,
        "status": record.status,
        "error": record.error,
        "kept": record.kept,
        "ts": round(record.ts, 3),
        "duration_ms": round(record.duration_ms, 3),
        "root": span_to_dict(record.root),
    }


def chrome_trace(record: TraceRecord) -> dict:
    """The trace as Chrome ``trace_event`` JSON (about:tracing /
    Perfetto). Each span is a complete ("X") event; timestamps are
    microseconds relative to the root, one ``tid`` lane per thread."""
    root = record.root
    events: list[dict] = []
    tids: dict[int, int] = {}
    for span in root.walk():
        # stable small lane numbers in tree order: lane 1 is the
        # request thread, workers get 2, 3, ... as they appear
        tid = tids.setdefault(span.tid, len(tids) + 1)
        end = span.end if span.end is not None else span.start
        args: dict[str, object] = dict(span.meta)
        args.update({f"counter.{k}": v for k, v in span.counters.items()})
        if span.statements:
            args["sql.statements"] = sum(
                getattr(r, "executions", 1) for r in span.statements)
            args["sql.ms"] = round(sum(r.duration_ms
                                       for r in span.statements), 3)
        events.append({
            "name": span.name,
            "cat": "xomatiq",
            "ph": "X",
            "ts": round((span.start - root.start) * 1e6, 1),
            "dur": round((end - span.start) * 1e6, 1),
            "pid": 1,
            "tid": tid,
            # Chrome trace args must be JSON primitives
            "args": {k: _jsonable(v) for k, v in args.items()},
        })
    for ident, tid in tids.items():
        events.append({
            "name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
            "args": {"name": ("request" if tid == 1
                              else f"worker-{ident}")},
        })
    return {
        "displayTimeUnit": "ms",
        "otherData": {"trace_id": record.trace_id,
                      "request_id": record.request_id,
                      "endpoint": record.endpoint},
        "traceEvents": events,
    }


#: span attributes surfaced on waterfall rows, in display order
_WATERFALL_META = ("shard", "endpoint", "status", "semijoin", "backend")
_WATERFALL_COUNTERS = ("rows_shipped", "cache.hit", "cache.miss",
                       "statements", "rows")


def format_trace(trace: dict, width: int = 32) -> str:
    """Render a served trace dict as a span-tree waterfall.

    Works off the JSON payload (not live ``Span`` objects) so the CLI
    can render traces fetched over HTTP. Each row shows a proportional
    time bar, duration, and the load-bearing attributes: shard, rows
    shipped, cache hit/miss, semi-join mode, SQL statement timings.
    """
    root = trace["root"]
    total = root.get("duration_ms") or 0.0
    lines = [
        f"trace {trace['trace_id']}  request_id={trace['request_id'] or '-'}"
        f"  endpoint={trace.get('endpoint') or '-'}"
        f"  status={trace.get('status')}"
        f"  kept={trace.get('kept')}  {total:.1f}ms",
    ]

    def bar(start_ms: float, duration_ms: float) -> str:
        if total <= 0.0:
            return " " * width
        lead = int(width * start_ms / total)
        body = max(1, int(width * duration_ms / total))
        lead = min(lead, width - 1)
        body = min(body, width - lead)
        return " " * lead + "▇" * body + " " * (width - lead - body)

    def render(span: dict, depth: int) -> None:
        duration = span.get("duration_ms")
        shown = duration if duration is not None else 0.0
        attrs = []
        for key in _WATERFALL_META:
            if key in span.get("meta", {}):
                attrs.append(f"{key}={span['meta'][key]}")
        for key in _WATERFALL_COUNTERS:
            if key in span.get("counters", {}):
                attrs.append(f"{key}={span['counters'][key]}")
        statements = span.get("statements") or []
        if statements:
            sql_ms = sum(s["duration_ms"] for s in statements)
            attrs.append(f"sql={sql_ms:.1f}ms")
        label = "  " * depth + span["name"]
        duration_text = (f"{duration:8.2f}ms" if duration is not None
                         else "    openms")
        lines.append(f"|{bar(span.get('start_ms', 0.0), shown)}| "
                     f"{duration_text}  {label}"
                     + (f"  [{', '.join(attrs)}]" if attrs else ""))
        for child in span.get("children", []):
            render(child, depth + 1)

    render(root, 0)
    return "\n".join(lines)
