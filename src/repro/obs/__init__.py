"""Observability: tracing, always-on metrics, events, and health.

The paper's authors tuned XomatiQ "by meticulous analysis of query
plans"; that workflow needs the pipeline to stop being a black box.
This package provides it:

* :mod:`repro.obs.trace` — :class:`Tracer` producing nested
  :class:`Span` trees with wall-clock timings and counters,
* :mod:`repro.obs.metrics` — :class:`MetricsRegistry` (thread-safe
  counters, gauges, fixed-bucket latency histograms with p50/p95/p99),
  JSON snapshots and Prometheus text exposition; cheap enough that it
  is **on by default** in every :class:`~repro.engine.Warehouse`,
* :mod:`repro.obs.events` — :class:`EventLog`, a structured JSON-lines
  ring buffer with severity levels, and :class:`SlowQueryLog`, which
  captures query text + compiled SQL + EXPLAIN for any query over a
  configurable threshold,
* :mod:`repro.obs.health` — :func:`health_report`, row-count and
  keyword-index sanity checks plus per-source harvest freshness,
* :mod:`repro.obs.backend` — :class:`InstrumentedBackend`, a
  transparent wrapper over any relational backend that records every
  SQL statement into the active span and/or the metrics registry,
* :mod:`repro.obs.profile` — one-shot query profiling
  (:func:`profile_query`, :class:`ProfileReport`) and text rendering,
* :mod:`repro.obs.export` — JSON export of traces and profiles
  (consumed by ``benchmarks/summarize.py``),
* :mod:`repro.obs.tracestore` — :class:`TraceStore`, a bounded ring of
  finished request traces with head sampling plus tail-based keep for
  slow and error traces, Chrome ``trace_event`` export, and the
  ``xomatiq trace show`` waterfall renderer.

Span *tracing* remains opt-in (``Warehouse(trace=True)``); the metrics
plane and slow-query log are always on and can be disabled with
``Warehouse(metrics=False)``. Off is a null object, never ``None``:
:data:`NULL_TRACER` and :data:`NULL_METRICS` (a :class:`NullMetrics`)
take every call and keep nothing, so each layer runs one code path.
When both are active, every finished span automatically feeds the
``trace.span_seconds`` histogram.
"""

from repro.obs.backend import InstrumentedBackend
from repro.obs.events import Event, EventLog, SlowQueryLog, SlowQueryRecord
from repro.obs.export import (
    export_profiles,
    profile_to_dict,
    span_to_dict,
    trace_to_json,
    tracer_to_dicts,
)
from repro.obs.health import format_health, health_report
from repro.obs.metrics import (
    Counter,
    Gauge,
    NULL_METRICS,
    Histogram,
    MetricsRegistry,
    NullMetrics,
    default_registry,
    resolve_metrics,
)
from repro.obs.profile import ProfileReport, format_profile, profile_query
from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    Span,
    StatementRecord,
    TraceContext,
    Tracer,
    resolve_tracer,
)
from repro.obs.tracestore import (
    TraceRecord,
    TraceStore,
    chrome_trace,
    format_trace,
    trace_summary,
    trace_to_dict,
)

__all__ = [
    "Counter",
    "Event",
    "EventLog",
    "Gauge",
    "Histogram",
    "InstrumentedBackend",
    "MetricsRegistry",
    "NULL_METRICS",
    "NULL_TRACER",
    "NullMetrics",
    "NullTracer",
    "ProfileReport",
    "SlowQueryLog",
    "SlowQueryRecord",
    "Span",
    "StatementRecord",
    "TraceContext",
    "TraceRecord",
    "TraceStore",
    "Tracer",
    "chrome_trace",
    "default_registry",
    "export_profiles",
    "format_health",
    "format_profile",
    "format_trace",
    "health_report",
    "profile_query",
    "profile_to_dict",
    "resolve_metrics",
    "resolve_tracer",
    "span_to_dict",
    "trace_summary",
    "trace_to_dict",
    "trace_to_json",
    "tracer_to_dicts",
]
