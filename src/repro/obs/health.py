"""Warehouse health reporting.

The grid-services deployment sketched in PAPERS.md assumes each
warehouse node can answer "are you well?" without a human running
benchmarks. :func:`health_report` is that answer: structural sanity
checks over the generic schema (row counts that must agree, a keyword
index that must exist when there is text to index), plus per-source
freshness read from the always-on metrics plane (the
``hound.last_harvest_timestamp`` gauge every Data Hounds load sets).

Checks are deliberately portable SQL — plain ``COUNT(*)`` per table —
so the report works identically on SQLite and minidb, and cheap
enough to run from a liveness probe.
"""

from __future__ import annotations

import time
from typing import Callable

#: freshness beyond this is reported as stale (a monthly release
#: cadence with generous slack; tune per deployment)
DEFAULT_STALE_AFTER_S = 45 * 24 * 3600.0

OK = "ok"
WARN = "warn"
FAIL = "fail"

#: severity order for rolling individual checks up into one status
_STATUS_RANK = {OK: 0, WARN: 1, FAIL: 2}


def combine_statuses(statuses) -> str:
    """The worst status of an iterable (ok < warn < fail) — shared by
    the single-warehouse report and the federation roll-up, and what
    monitoring maps to exit codes (``xomatiq health``: 0/2/1)."""
    worst = OK
    for status in statuses:
        if _STATUS_RANK.get(status, _STATUS_RANK[WARN]) \
                > _STATUS_RANK[worst]:
            worst = status
    return worst


def health_report(warehouse, metrics=None,
                  stale_after_s: float = DEFAULT_STALE_AFTER_S,
                  clock: Callable[[], float] = time.time) -> dict:
    """Structural + freshness health of one warehouse.

    Returns a JSON-ready dict: an overall ``status``, the individual
    ``checks``, the per-table ``stats`` the checks were computed from,
    and per-source ``freshness`` (``age_s`` since the last harvest
    recorded in ``metrics``, which defaults to the warehouse's own
    registry).

    Statuses are three-valued so monitoring can tell a degraded
    warehouse from a broken one: structural checks that mean queries
    return *wrong or empty* answers (shredded rows missing for loaded
    documents, an empty keyword index over indexed text) report
    ``fail``; operational conditions the warehouse serves through
    (open breakers, quarantined entries, stale sources, nothing loaded
    yet) report ``warn``. The overall status is the worst check.
    """
    if metrics is None:
        metrics = warehouse.metrics
    stats = warehouse.stats()
    checks: list[dict] = []

    def check(name: str, healthy: bool, detail: str,
              severity: str = WARN) -> None:
        checks.append({"name": name,
                       "status": OK if healthy else severity,
                       "detail": detail})

    documents = stats.get("documents", 0)
    elements = stats.get("elements", 0)
    text_values = stats.get("text_values", 0)
    keywords = stats.get("keywords", 0)

    check("documents_present", documents > 0,
          f"{documents} documents loaded")
    check("elements_cover_documents",
          documents == 0 or elements >= documents,
          f"{elements} elements for {documents} documents"
          + ("" if documents == 0 or elements >= documents
             else " — shredded rows are missing"),
          severity=FAIL)
    check("keyword_index_populated",
          text_values == 0 or keywords > 0,
          f"{keywords} keyword rows for {text_values} text values"
          + ("" if text_values == 0 or keywords > 0
             else " — keyword index empty, contains() will find nothing"),
          severity=FAIL)
    check("text_anchored_to_elements",
          text_values <= max(elements, 1) * 64,
          f"{text_values} text values over {elements} elements")

    sources = sorted(key.split(":", 1)[1] for key in stats
                     if key.startswith("documents:"))
    check("sources_registered", True,
          f"{len(sources)} source(s): {', '.join(sources) or '(none)'}")

    freshness = _freshness(sources, metrics, stale_after_s, clock)
    for source, info in freshness.items():
        if info["age_s"] is None:
            detail = "no harvest recorded in this process"
            healthy = True   # an attached-to warehouse, not a fault
        else:
            healthy = info["age_s"] <= stale_after_s
            detail = (f"last harvest {info['age_s']:.0f}s ago"
                      + ("" if healthy else
                         f" (stale: > {stale_after_s:.0f}s)"))
        check(f"freshness:{source}", healthy, detail)

    resilience = _resilience(metrics)
    for source, state in resilience["breakers"].items():
        check(f"breaker:{source}", state != "open",
              f"circuit breaker {state}"
              + ("" if state != "open"
                 else " — fetches short-circuited until cooldown"))
    quarantined = resilience["quarantined"]
    total_quarantined = sum(quarantined.values())
    check("quarantine_empty", total_quarantined == 0,
          f"{total_quarantined} entries quarantined"
          + ("" if total_quarantined == 0 else " (" + ", ".join(
              f"{source}: {count}"
              for source, count in sorted(quarantined.items())) + ")"))

    status = combine_statuses(c["status"] for c in checks)
    return {"status": status, "checks": checks, "stats": stats,
            "freshness": freshness, "resilience": resilience}


def _freshness(sources, metrics, stale_after_s: float,
               clock: Callable[[], float]) -> dict:
    now = clock()
    out: dict[str, dict] = {}
    for source in sources:
        age = None
        last = metrics.get_gauge_value("hound.last_harvest_timestamp",
                                       source=source)
        if last:
            age = max(0.0, now - last)
        out[source] = {
            "age_s": round(age, 3) if age is not None else None,
            "stale": (age is not None and age > stale_after_s),
        }
    return out


def _resilience(metrics) -> dict:
    """Transport-resilience view: per-source breaker states (decoded
    from the ``transport.breaker_state`` gauge), quarantine counts, and
    the cumulative fetch-error / retry counters.  Empty dicts when the
    warehouse runs without metrics or no resilient transport is wired.
    """
    out = {"breakers": {}, "quarantined": {},
           "fetch_errors": {}, "retries": {}}
    # lazy: obs must stay importable without the datahounds package
    from repro.resilience import BREAKER_STATE_NAMES
    for labels, value in metrics.gauge_items("transport.breaker_state"):
        source = labels.get("source", "?")
        out["breakers"][source] = BREAKER_STATE_NAMES.get(
            int(value), f"state-{int(value)}")
    for name, key in (("hound.entries_quarantined", "quarantined"),
                      ("transport.fetch_errors", "fetch_errors"),
                      ("transport.retries", "retries")):
        for labels, value in metrics.counter_items(name):
            source = labels.get("source", "?")
            out[key][source] = out[key].get(source, 0) + int(value)
    return out


def format_health(report: dict) -> str:
    """Human-readable rendering of one health report."""
    lines = [f"health: {report['status'].upper()}"]
    for check in report["checks"]:
        marker = {OK: "+", FAIL: "x"}.get(check["status"], "!")
        lines.append(f"  [{marker}] {check['name']:<28} {check['detail']}")
    lines.append("tables:")
    for key, value in report["stats"].items():
        lines.append(f"  {key:<24} {value}")
    return "\n".join(lines)
