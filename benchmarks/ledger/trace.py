"""The benchmark's own tracing: spans recorded from outside the program.

Nothing here imports ``repro.obs``. A :class:`Recorder` keeps spans in
memory — name, start, end, parent, operation id — and is written out
once, when the run ends (``--trace-out``). Spans come from two places
only:

* ``with recorder.span("layer.what"):`` around a call from the
  benchmark into one of the program's public functions, and
* :class:`TimedBackend`, a proxy that satisfies the
  ``repro.relational.backend.Backend`` protocol and is handed to
  ``Warehouse(backend=...)``, so every statement the program sends to
  its relational engine is timed and counted where it crosses that
  boundary.

A span's self time is its duration minus the part of it covered by its
children (the spans that name it as parent).
"""

from __future__ import annotations

import json
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Recorder:
    """In-memory span store; parents are tracked per thread."""

    def __init__(self):
        #: [name, start_s, end_s, parent index or -1, operation id]
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._stack = threading.local()

    @contextmanager
    def span(self, name: str, op: int = -1):
        """Record one span around the block; yields its index."""
        stack = self._stack.__dict__.setdefault("open", [])
        parent = stack[-1] if stack else -1
        if op < 0 and parent >= 0:
            op = self.spans[parent][4]
        record = [name, perf_counter(), 0.0, parent, op]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        try:
            yield index
        finally:
            record[2] = perf_counter()
            stack.pop()

    def duration(self, index: int) -> float:
        """Seconds one recorded span lasted."""
        record = self.spans[index]
        return record[2] - record[1]

    def totals(self, since: int = 0) -> tuple[dict, dict, dict]:
        """``(busy, self, count)`` seconds/occurrences per span name
        over the spans recorded from index ``since`` on."""
        child_time: dict[int, float] = defaultdict(float)
        for name, start, end, parent, _op in self.spans[since:]:
            if parent >= since:
                child_time[parent] += end - start
        busy: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        count: dict[str, int] = defaultdict(int)
        for index in range(since, len(self.spans)):
            name, start, end, _parent, _op = self.spans[index]
            busy[name] += end - start
            own[name] += (end - start) - child_time.get(index, 0.0)
            count[name] += 1
        return busy, own, count

    def dump(self, path) -> None:
        """Write every span as JSON (times relative to the first)."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({
                "fields": ["name", "start_s", "end_s", "parent", "op"],
                "spans": [[name, start - origin, end - origin, parent, op]
                          for name, start, end, parent, op in self.spans],
            }, handle)


class TimedBackend:
    """A ``Backend`` that forwards to ``inner`` and measures the
    crossing: seconds busy, statements, rows written and read, commit
    and ANALYZE time. Counters are cumulative; callers difference
    :meth:`snapshot` around the section they care about. With a
    ``recorder`` every call is also a ``relational.*`` span, nested
    under whatever benchmark span is open on the calling thread."""

    def __init__(self, inner, recorder: Recorder | None = None):
        self.inner = inner
        self.name = inner.name
        self.recorder = recorder
        self._lock = threading.Lock()
        self.busy_s = 0.0
        self.statements = 0
        self.rows_written = 0
        self.rows_read = 0
        self.commit_s = 0.0
        self.analyze_s = 0.0

    def _timed(self, span_name: str, call):
        start = perf_counter()
        if self.recorder is None:
            result = call()
        else:
            with self.recorder.span(span_name):
                result = call()
        return result, perf_counter() - start

    def execute(self, sql, params=()):
        """One statement; SELECT rows count as read."""
        rows, seconds = self._timed(
            "relational.execute", lambda: self.inner.execute(sql, params))
        with self._lock:
            self.busy_s += seconds
            self.statements += 1
            self.rows_read += len(rows)
        return rows

    def executemany(self, sql, params_seq):
        """One batched DML statement; its tuples count as written."""
        count, seconds = self._timed(
            "relational.executemany",
            lambda: self.inner.executemany(sql, params_seq))
        with self._lock:
            self.busy_s += seconds
            self.statements += 1
            self.rows_written += count
        return count

    def commit(self):
        """Commit, timed on its own as well as inside busy."""
        _, seconds = self._timed("relational.commit", self.inner.commit)
        with self._lock:
            self.busy_s += seconds
            self.commit_s += seconds

    def analyze(self):
        """Planner-statistics refresh, timed on its own as well."""
        _, seconds = self._timed("relational.analyze", self.inner.analyze)
        with self._lock:
            self.busy_s += seconds
            self.analyze_s += seconds

    def close(self):
        """Release the wrapped backend."""
        self.inner.close()

    def __getattr__(self, name):
        # engine extras the program probes for (interrupt, explain)
        return getattr(self.inner, name)

    def snapshot(self) -> dict[str, float]:
        """The cumulative counters, as one dict."""
        with self._lock:
            return {"busy_s": self.busy_s, "statements": self.statements,
                    "rows_written": self.rows_written,
                    "rows_read": self.rows_read,
                    "commit_s": self.commit_s,
                    "analyze_s": self.analyze_s}


def relational_metrics(backends, before: list[dict] | None = None
                       ) -> dict[str, float]:
    """The ``relational.*`` per-layer metrics: the counters of
    ``backends`` summed, less their ``before`` snapshots (same order)
    when given."""
    total: dict[str, float] = defaultdict(float)
    for index, backend in enumerate(backends):
        for key, value in backend.snapshot().items():
            old = before[index][key] if before is not None else 0
            total[f"relational.{key}"] += value - old
    return dict(total)
