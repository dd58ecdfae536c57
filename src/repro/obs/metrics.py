"""Always-on metrics: counters, gauges, fixed-bucket histograms.

The paper's authors tuned XomatiQ "by meticulous analysis of query
plans" — a one-shot activity. A warehouse serving standing queries and
periodic Data Hounds refreshes needs the *continuous* counterpart: a
metrics plane that is always on, cheap enough that nobody turns it
off, and readable by both humans (``xomatiq metrics``) and scrapers
(Prometheus text exposition).

Three metric kinds, all thread-safe:

* :class:`Counter` — monotonically increasing (``inc``),
* :class:`Gauge` — a settable last-value (``set``/``inc``),
* :class:`Histogram` — fixed upper-bound buckets with running
  count/sum; p50/p95/p99 are interpolated from the bucket counts at
  read time, so ``observe()`` on the hot path is one bisect plus two
  adds.

A :class:`MetricsRegistry` names metrics and their label sets;
:func:`default_registry` holds the process-wide instance every
component records into unless handed another one. Disabling is
explicit: ``Warehouse(metrics=False)`` swaps in :class:`NullMetrics`,
whose methods are no-ops.

Costs (the guardrail in ``benchmarks/metrics_overhead.py`` pins the
end-to-end number under 5%): a counter ``inc`` through the registry is
one dict lookup + one locked add; hot paths that run per SQL statement
cache the metric handle instead and skip the lookup.
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_left
from typing import Iterable, Mapping

#: default histogram upper bounds — latencies in seconds, Prometheus'
#: conventional spacing widened at the top for load/harvest timings
DEFAULT_BUCKETS = (0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
                   0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0)

#: upper bounds for size-like histograms (documents per batch, bytes)
SIZE_BUCKETS = (1, 8, 64, 256, 1_024, 8_192, 65_536, 524_288,
                4_194_304, 33_554_432)

LabelItems = tuple[tuple[str, str], ...]


def _label_key(labels: Mapping[str, object]) -> LabelItems:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "labels", "value", "_lock")

    def __init__(self, name: str, labels: LabelItems = ()):
        self.name = name
        self.labels = labels
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int | float = 1) -> None:
        """Add ``amount`` (must be >= 0)."""
        with self._lock:
            self.value += amount


class Gauge:
    """A value that goes up and down (sizes, timestamps)."""

    __slots__ = ("name", "labels", "value", "_lock")

    def __init__(self, name: str, labels: LabelItems = ()):
        self.name = name
        self.labels = labels
        self.value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        """Replace the current value."""
        with self._lock:
            self.value = value

    def inc(self, amount: float = 1.0) -> None:
        """Shift the current value."""
        with self._lock:
            self.value += amount


class Histogram:
    """Fixed-bucket histogram with running count and sum.

    ``observe`` is the hot-path entry: bisect into ``bounds`` (upper
    bucket edges, ascending; everything above the last edge lands in
    the implicit ``+Inf`` bucket) and bump that bucket, the count and
    the sum under one short lock.
    """

    __slots__ = ("name", "labels", "bounds", "bucket_counts", "count",
                 "sum", "exemplars", "_lock")

    def __init__(self, name: str, labels: LabelItems = (),
                 buckets: Iterable[float] | None = None):
        self.name = name
        self.labels = labels
        self.bounds = tuple(buckets) if buckets else DEFAULT_BUCKETS
        if any(b <= a for a, b in zip(self.bounds, self.bounds[1:])):
            raise ValueError("histogram buckets must be ascending")
        #: one slot per bound plus the +Inf overflow slot
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0
        #: per-bucket latest exemplar ``(trace_id, value, epoch_s)``,
        #: allocated lazily — histograms that never see an exemplar
        #: (the per-statement hot path) pay nothing
        self.exemplars: list[tuple[str, float, float] | None] | None = None
        self._lock = threading.Lock()

    def observe(self, value: float, exemplar: str | None = None) -> None:
        """Record one sample; ``exemplar`` is the trace id of the
        request this sample came from — the latest one per bucket is
        kept and rendered in the Prometheus exposition, linking a
        latency bucket to a retained trace."""
        index = bisect_left(self.bounds, value)
        with self._lock:
            self.bucket_counts[index] += 1
            self.count += 1
            self.sum += value
            if exemplar is not None:
                if self.exemplars is None:
                    self.exemplars = [None] * len(self.bucket_counts)
                self.exemplars[index] = (exemplar, value, time.time())

    def quantile(self, q: float) -> float:
        """Approximate q-quantile (0 < q <= 1), linearly interpolated
        inside the bucket the quantile falls in. Empty histograms
        report 0.0; samples beyond the last bound report that bound
        (the histogram cannot see further)."""
        with self._lock:
            total = self.count
            cumulative = 0
            if total == 0:
                return 0.0
            rank = q * total
            for index, bucket_count in enumerate(self.bucket_counts):
                cumulative += bucket_count
                if cumulative >= rank and bucket_count:
                    if index >= len(self.bounds):
                        return float(self.bounds[-1])
                    upper = self.bounds[index]
                    lower = self.bounds[index - 1] if index else 0.0
                    into = (rank - (cumulative - bucket_count)) / bucket_count
                    return lower + (upper - lower) * into
        return float(self.bounds[-1])

    def percentiles(self) -> dict[str, float]:
        """The operator's trio: p50/p95/p99."""
        return {"p50": self.quantile(0.50),
                "p95": self.quantile(0.95),
                "p99": self.quantile(0.99)}


class StatementTimer:
    """Fused hot-path handle: statements counter + rows counter +
    latency histogram updated under **one** lock per call.

    The instrumented backend records three facts for every SQL
    statement; three independent metric locks would triple the
    acquisition cost on the hottest path in the system. The registry
    creates the trio with a single shared lock (see
    :meth:`MetricsRegistry.statement_timer`), so the per-statement
    price is one bisect and one locked five-field update. The three
    metrics remain ordinary registry citizens — snapshots and the
    Prometheus renderer see them like any other counter/histogram.
    """

    __slots__ = ("statements", "rows", "seconds", "_lock")

    def __init__(self, statements: Counter, rows: Counter,
                 seconds: Histogram, lock: threading.Lock):
        self.statements = statements
        self.rows = rows
        self.seconds = seconds
        self._lock = lock

    def record(self, row_count: int, duration_s: float,
               executions: int = 1) -> None:
        """One statement (or one ``executemany`` batch of
        ``executions`` statements) that returned ``row_count`` rows."""
        seconds = self.seconds
        index = bisect_left(seconds.bounds, duration_s)
        with self._lock:
            self.statements.value += executions
            self.rows.value += row_count
            seconds.bucket_counts[index] += 1
            seconds.count += 1
            seconds.sum += duration_s


class QueryTimer:
    """Fused per-query handle, same idea as :class:`StatementTimer`:
    the ``query.total`` / ``query.cache_hits`` / ``query.cache_misses``
    / ``query.seconds`` / ``query.result_rows`` quintet updated under
    one lock per finished query instead of four."""

    __slots__ = ("total", "hits", "misses", "seconds", "result_rows",
                 "_lock")

    def __init__(self, total: Counter, hits: Counter, misses: Counter,
                 seconds: Histogram, result_rows: Counter,
                 lock: threading.Lock):
        self.total = total
        self.hits = hits
        self.misses = misses
        self.seconds = seconds
        self.result_rows = result_rows
        self._lock = lock

    def record(self, cache_hit: bool, duration_s: float,
               rows: int) -> None:
        """One finished query."""
        seconds = self.seconds
        index = bisect_left(seconds.bounds, duration_s)
        with self._lock:
            self.total.value += 1
            (self.hits if cache_hit else self.misses).value += 1
            self.result_rows.value += rows
            seconds.bucket_counts[index] += 1
            seconds.count += 1
            seconds.sum += duration_s


class MetricsRegistry:
    """Names metrics, hands out handles, renders snapshots.

    Metric identity is ``(name, sorted label items)``; the same name
    must keep the same kind (a counter cannot come back as a gauge).
    ``counter()``/``gauge()``/``histogram()`` get-or-create and return
    the live handle — hot paths hold on to it; the ``inc``/``set``/
    ``observe`` conveniences do the lookup per call.
    """

    #: the one on/off predicate of the metrics sink (False on
    #: :class:`NullMetrics`)
    enabled = True

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: dict[tuple[str, LabelItems], Counter] = {}
        self._gauges: dict[tuple[str, LabelItems], Gauge] = {}
        self._histograms: dict[tuple[str, LabelItems], Histogram] = {}
        self._statement_timers: dict[str, StatementTimer] = {}
        self._query_timers: dict[str, QueryTimer] = {}

    # -- handles ------------------------------------------------------------

    def counter(self, name: str, **labels) -> Counter:
        """Get or create a counter."""
        key = (name, _label_key(labels))
        with self._lock:
            metric = self._counters.get(key)
            if metric is None:
                metric = self._counters[key] = Counter(name, key[1])
        return metric

    def gauge(self, name: str, **labels) -> Gauge:
        """Get or create a gauge."""
        key = (name, _label_key(labels))
        with self._lock:
            metric = self._gauges.get(key)
            if metric is None:
                metric = self._gauges[key] = Gauge(name, key[1])
        return metric

    def histogram(self, name: str,
                  buckets: Iterable[float] | None = None,
                  **labels) -> Histogram:
        """Get or create a histogram (``buckets`` only matters on the
        creating call)."""
        key = (name, _label_key(labels))
        with self._lock:
            metric = self._histograms.get(key)
            if metric is None:
                metric = self._histograms[key] = Histogram(
                    name, key[1], buckets=buckets)
        return metric

    def statement_timer(self, kind: str) -> StatementTimer:
        """Get or create the fused per-statement-kind handle (the
        ``backend.statements`` / ``backend.rows`` /
        ``backend.statement_seconds`` trio with a shared lock).

        The ``backend.*`` metric names are owned by this path — update
        them through the timer, not through loose handles, or the
        shared-lock fusion cannot protect them."""
        with self._lock:
            timer = self._statement_timers.get(kind)
            if timer is not None:
                return timer
            label = (("kind", kind),)
            shared = threading.Lock()
            statements = self._counters.setdefault(
                ("backend.statements", label),
                Counter("backend.statements", label))
            rows = self._counters.setdefault(
                ("backend.rows", label), Counter("backend.rows", label))
            seconds = self._histograms.setdefault(
                ("backend.statement_seconds", label),
                Histogram("backend.statement_seconds", label))
            statements._lock = rows._lock = seconds._lock = shared
            timer = self._statement_timers[kind] = StatementTimer(
                statements, rows, seconds, shared)
            return timer

    def query_timer(self, backend_name: str) -> QueryTimer:
        """Get or create the fused per-query handle (the ``query.*``
        counters/histogram with a shared lock; see
        :class:`QueryTimer`). ``query.total`` is labelled by backend,
        the rest are unlabelled — update them through the timer."""
        with self._lock:
            timer = self._query_timers.get(backend_name)
            if timer is not None:
                return timer
            label = (("backend", backend_name),)
            shared = threading.Lock()
            total = self._counters.setdefault(
                ("query.total", label), Counter("query.total", label))
            hits = self._counters.setdefault(
                ("query.cache_hits", ()), Counter("query.cache_hits", ()))
            misses = self._counters.setdefault(
                ("query.cache_misses", ()),
                Counter("query.cache_misses", ()))
            seconds = self._histograms.setdefault(
                ("query.seconds", ()), Histogram("query.seconds", ()))
            result_rows = self._counters.setdefault(
                ("query.result_rows", ()),
                Counter("query.result_rows", ()))
            total._lock = hits._lock = misses._lock = shared
            seconds._lock = result_rows._lock = shared
            timer = self._query_timers[backend_name] = QueryTimer(
                total, hits, misses, seconds, result_rows, shared)
            return timer

    # -- conveniences -------------------------------------------------------

    def inc(self, name: str, amount: int | float = 1, **labels) -> None:
        """Increment a counter by name."""
        self.counter(name, **labels).inc(amount)

    def set_gauge(self, name: str, value: float, **labels) -> None:
        """Set a gauge by name."""
        self.gauge(name, **labels).set(value)

    def observe(self, name: str, value: float,
                buckets: Iterable[float] | None = None,
                exemplar: str | None = None, **labels) -> None:
        """Record a histogram sample by name (``exemplar`` optionally
        ties the sample to a trace id; see :meth:`Histogram.observe`)."""
        self.histogram(name, buckets=buckets, **labels).observe(
            value, exemplar=exemplar)

    # -- reading ------------------------------------------------------------

    def get_counter(self, name: str, **labels) -> float:
        """Current counter value (0 when never incremented)."""
        key = (name, _label_key(labels))
        with self._lock:
            metric = self._counters.get(key)
        return metric.value if metric is not None else 0

    def get_gauge_value(self, name: str, **labels) -> float | None:
        """Current gauge value, or None when never set (a read that
        does not create the gauge)."""
        key = (name, _label_key(labels))
        with self._lock:
            metric = self._gauges.get(key)
        return metric.value if metric is not None else None

    def counter_total(self, name: str) -> float:
        """Sum of one counter name over every label set."""
        with self._lock:
            metrics = [m for (n, __), m in self._counters.items()
                       if n == name]
        return sum(m.value for m in metrics)

    def counter_items(self, name: str) -> list[tuple[dict, float]]:
        """Every label set of one counter name with its value (the
        health report enumerates per-source counters this way)."""
        with self._lock:
            metrics = [m for (n, __), m in self._counters.items()
                       if n == name]
        return [(dict(m.labels), m.value) for m in metrics]

    def gauge_items(self, name: str) -> list[tuple[dict, float]]:
        """Every label set of one gauge name with its value."""
        with self._lock:
            metrics = [m for (n, __), m in self._gauges.items()
                       if n == name]
        return [(dict(m.labels), m.value) for m in metrics]

    def snapshot(self) -> dict:
        """JSON-ready dump of every metric (the ``xomatiq metrics``
        payload; schema documented in docs/observability.md)."""
        with self._lock:
            counters = list(self._counters.values())
            gauges = list(self._gauges.values())
            histograms = list(self._histograms.values())
        return {
            "counters": [
                {"name": m.name, "labels": dict(m.labels),
                 "value": m.value}
                for m in sorted(counters, key=lambda m: (m.name, m.labels))],
            "gauges": [
                {"name": m.name, "labels": dict(m.labels),
                 "value": m.value}
                for m in sorted(gauges, key=lambda m: (m.name, m.labels))],
            "histograms": [
                {"name": m.name, "labels": dict(m.labels),
                 "count": m.count, "sum": round(m.sum, 6),
                 **{k: round(v, 6) for k, v in m.percentiles().items()},
                 "buckets": {str(bound): count
                             for bound, count in
                             zip(m.bounds + ("+Inf",), m.bucket_counts)}}
                for m in sorted(histograms,
                                key=lambda m: (m.name, m.labels))],
        }

    def render_prometheus(self, prefix: str = "xomatiq") -> str:
        """Prometheus text exposition (version 0.0.4) of the whole
        registry: ``# TYPE`` headers, one sample line per label set,
        histograms as cumulative ``_bucket``/``_sum``/``_count``."""
        lines: list[str] = []
        with self._lock:
            counters = sorted(self._counters.values(),
                              key=lambda m: (m.name, m.labels))
            gauges = sorted(self._gauges.values(),
                            key=lambda m: (m.name, m.labels))
            histograms = sorted(self._histograms.values(),
                                key=lambda m: (m.name, m.labels))
        for kind, metrics in (("counter", counters), ("gauge", gauges)):
            seen: set[str] = set()
            for metric in metrics:
                exposed = _prom_name(prefix, metric.name)
                if kind == "counter" and not exposed.endswith("_total"):
                    exposed += "_total"
                if exposed not in seen:
                    seen.add(exposed)
                    lines.append(f"# TYPE {exposed} {kind}")
                lines.append(f"{exposed}{_prom_labels(metric.labels)}"
                             f" {_prom_value(metric.value)}")
        seen = set()
        for metric in histograms:
            exposed = _prom_name(prefix, metric.name)
            if exposed not in seen:
                seen.add(exposed)
                lines.append(f"# TYPE {exposed} histogram")
            cumulative = 0
            exemplars = metric.exemplars
            for index, (bound, count) in enumerate(
                    zip(metric.bounds + ("+Inf",), metric.bucket_counts)):
                cumulative += count
                le = "+Inf" if bound == "+Inf" else _prom_value(bound)
                labels = metric.labels + (("le", le),)
                line = (f"{exposed}_bucket{_prom_labels(labels)}"
                        f" {cumulative}")
                if exemplars is not None and exemplars[index] is not None:
                    trace_id, value, ts = exemplars[index]
                    line += (f" # {_prom_labels((('trace_id', trace_id),))}"
                             f" {_prom_value(value)} {ts:.3f}")
                lines.append(line)
            lines.append(f"{exposed}_sum{_prom_labels(metric.labels)}"
                         f" {_prom_value(metric.sum)}")
            lines.append(f"{exposed}_count{_prom_labels(metric.labels)}"
                         f" {metric.count}")
        return "\n".join(lines) + "\n" if lines else ""

    def reset(self) -> None:
        """Drop every metric (tests; production registries only grow)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
            self._statement_timers.clear()
            self._query_timers.clear()


class NullMetrics:
    """The off switch: same surface as :class:`MetricsRegistry`, does
    nothing, allocates nothing per call. Every layer holds a sink that
    is never ``None``; this is what "off" looks like."""

    enabled = False

    def counter(self, name: str, **labels):  # noqa: D102 - mirror API
        return _NULL_COUNTER

    def gauge(self, name: str, **labels):
        return _NULL_GAUGE

    def histogram(self, name: str, buckets=None, **labels):
        return _NULL_HISTOGRAM

    def statement_timer(self, kind: str):
        return _NULL_TIMER

    def query_timer(self, backend_name: str):
        return _NULL_TIMER

    def inc(self, name: str, amount=1, **labels) -> None:
        pass

    def set_gauge(self, name: str, value, **labels) -> None:
        pass

    def observe(self, name: str, value, buckets=None, exemplar=None,
                **labels) -> None:
        pass

    def get_counter(self, name: str, **labels):
        return 0

    def get_gauge_value(self, name: str, **labels):
        return None

    def counter_total(self, name: str):
        return 0

    def counter_items(self, name: str):
        return []

    def gauge_items(self, name: str):
        return []

    def snapshot(self) -> dict:
        return {"counters": [], "gauges": [], "histograms": []}

    def render_prometheus(self, prefix: str = "xomatiq") -> str:
        return ""

    def reset(self) -> None:
        pass


class _NullMetric:
    """Inert handle returned by :class:`NullMetrics`."""

    __slots__ = ()
    name = ""
    labels: LabelItems = ()
    value = 0
    count = 0
    sum = 0.0

    def inc(self, amount=1) -> None:
        pass

    def set(self, value) -> None:
        pass

    def observe(self, value, exemplar=None) -> None:
        pass

    def record(self, *args, **kwargs) -> None:
        pass


_NULL_COUNTER = _NullMetric()
_NULL_GAUGE = _NullMetric()
_NULL_HISTOGRAM = _NullMetric()
_NULL_TIMER = _NullMetric()

_default_registry = MetricsRegistry()

#: the shared off switch (stateless, so one instance serves everyone)
NULL_METRICS = NullMetrics()


def default_registry() -> MetricsRegistry:
    """The process-wide registry (what "always-on" records into)."""
    return _default_registry


def resolve_metrics(metrics) -> MetricsRegistry | NullMetrics:
    """Normalize a user-facing ``metrics`` argument: ``None``/``True``
    → the default registry, ``False`` → :class:`NullMetrics`, a
    registry instance → itself."""
    if metrics is None or metrics is True:
        return _default_registry
    if metrics is False:
        return NULL_METRICS
    return metrics


# -- prometheus rendering helpers ------------------------------------------


def _prom_name(prefix: str, name: str) -> str:
    mangled = "".join(ch if (ch.isalnum() or ch == "_") else "_"
                      for ch in name.replace(".", "_"))
    return f"{prefix}_{mangled}" if prefix else mangled


def _prom_labels(labels: LabelItems) -> str:
    if not labels:
        return ""
    parts = []
    for key, value in labels:
        escaped = (str(value).replace("\\", r"\\")
                   .replace('"', r'\"').replace("\n", r"\n"))
        parts.append(f'{key}="{escaped}"')
    return "{" + ",".join(parts) + "}"


def _prom_value(value) -> str:
    if isinstance(value, float):
        if value == int(value) and abs(value) < 1e15:
            return str(int(value))
        return repr(value)
    return str(value)
