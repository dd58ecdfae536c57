"""JSON export of traces and profiles.

Schema (documented in docs/observability.md)::

    span = {
      "name": str, "duration_ms": float,
      "span_id": str, "parent_id": str, "trace_id": str,
      "start_ms": float,  # offset from the root of the exported tree
      "meta": {...}, "counters": {"statements": int, "rows": int, ...},
      "statements": [
        {"sql": str, "kind": "SELECT", "param_count": int,
         "row_count": int, "duration_ms": float, "executions": int,
         "plan": [str, ...]},
      ],
      "children": [span, ...],
    }

    profile file = {
      "format": "xomatiq-profile/1",
      "profiles": [
        {"backend": "sqlite", "query": str, "rows": int,
         "stages": {"parse": ms, ..., "execute": ms},
         "sql_statements": int, "sql_rows": int, "sql_ms": float,
         "trace": span},
      ],
    }

``benchmarks/summarize.py`` consumes the profile file and prints the
per-stage breakdown next to the benchmark tables.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.profile import ProfileReport
    from repro.obs.trace import Span

#: format tag written into every exported profile file
PROFILE_FORMAT = "xomatiq-profile/1"


def span_to_dict(span: "Span", origin: float | None = None) -> dict:
    """One span (and its subtree) as JSON-ready data.

    A span that was never closed (``end is None``) renders with
    ``duration_ms: null`` — an honest "unknown", not a fake 0.0.
    ``start_ms`` is the offset from the root of the exported tree
    (absolute monotonic-clock readings are meaningless off-process),
    which is what the waterfall renderer and Chrome export need.
    """
    if origin is None:
        origin = span.start
    return {
        "name": span.name,
        "span_id": span.span_id,
        "parent_id": span.parent_id,
        "trace_id": span.trace_id,
        "start_ms": round((span.start - origin) * 1000.0, 4),
        "duration_ms": (round(span.duration_ms, 4)
                        if span.end is not None else None),
        "meta": {key: _jsonable(value)
                 for key, value in span.meta.items()},
        "counters": dict(span.counters),
        "statements": [_statement_to_dict(record)
                       for record in span.statements],
        "children": [span_to_dict(child, origin)
                     for child in span.children],
    }


def trace_to_json(span: "Span", indent: int | None = 2) -> str:
    """One span tree serialized to a JSON string."""
    return json.dumps(span_to_dict(span), indent=indent)


def tracer_to_dicts(tracer) -> list[dict]:
    """Every top-level span of a tracer, exported. Closes the
    catch-all ``(untracked)`` spans first so their durations are real
    instead of perpetually-open garbage."""
    tracer.finish()
    return [span_to_dict(span) for span in tracer.spans]


def profile_to_dict(report: "ProfileReport") -> dict:
    """One profile run as JSON-ready data (with stage rollup)."""
    root = report.trace
    return {
        "backend": report.backend,
        "query": report.query,
        "rows": report.rows,
        "stages": {child.name: round(child.duration_ms, 4)
                   for child in root.children},
        "sql_statements": root.total_counter("statements"),
        "sql_rows": root.total_counter("rows"),
        "sql_ms": round(sum(record.duration_ms
                            for record in root.all_statements()), 4),
        "trace": span_to_dict(root),
    }


def export_profiles(reports: Iterable["ProfileReport"],
                    path: str | Path) -> dict:
    """Write a profile file; returns the written payload."""
    payload = {
        "format": PROFILE_FORMAT,
        "profiles": [profile_to_dict(report) for report in reports],
    }
    Path(path).write_text(json.dumps(payload, indent=2),
                          encoding="utf-8")
    return payload


def _statement_to_dict(record) -> dict:
    return {
        "sql": record.sql,
        "kind": record.kind,
        "param_count": record.param_count,
        "row_count": record.row_count,
        "duration_ms": round(record.duration_ms, 4),
        "executions": record.executions,
        "plan": list(record.plan),
    }


def _jsonable(value):
    """A JSON primitive as itself; anything exotic (an exception
    object, a Path) degrades to its string form."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)
