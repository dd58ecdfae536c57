"""One-command reproduction driver.

Runs the full pipeline a reviewer needs::

    python reproduce.py            # tests + benchmarks + summaries
    python reproduce.py --quick    # tests only
    python reproduce.py --profile  # observability smoke: profile the
                                   # Figure 8/11 queries on both
                                   # backends, write profile_results.json
    python reproduce.py --metrics  # always-on metrics smoke: load via a
                                   # hound, run the Figure 8/11 queries,
                                   # write metrics.json (snapshot +
                                   # events + slow queries)
    python reproduce.py --chaos    # resilience smoke: harvest a mirror
                                   # under seeded transport faults and
                                   # verify convergence to the
                                   # fault-free document set

Outputs land next to this file: ``test_output.txt``,
``bench_output.txt``, ``bench_results.json`` and (with ``--profile``)
``profile_results.json`` — both JSON files feed
``benchmarks/summarize.py``.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parent

FIG8 = '''FOR $a IN document("hlx_embl.inv")/hlx_n_sequence,
     $b IN document("hlx_sprot.all")/hlx_n_sequence
WHERE contains ($a, "cdc6", any)
AND   contains ($b, "cdc6", any)
RETURN
     $b//sprot_accession_number,
     $a//embl_accession_number'''

FIG11 = '''FOR $a IN document("hlx_embl.inv")/hlx_n_sequence/db_entry,
    $b IN document("hlx_enzyme.DEFAULT")/hlx_enzyme/db_entry
WHERE $a//qualifier[@qualifier_type = "EC_number"] = $b/enzyme_id
RETURN $Accession_Number = $a//embl_accession_number,
       $Accession_Description = $a//description'''


def profile_smoke(out: Path) -> int:
    """Profile the paper's Figure 8 and 11 queries on both backends;
    write the stage-level breakdown JSON and print its summary."""
    sys.path.insert(0, str(ROOT / "src"))
    from repro.engine import Warehouse
    from repro.obs import export_profiles, format_profile
    from repro.relational import MiniDbBackend, SqliteBackend
    from repro.synth import build_corpus

    corpus = build_corpus(seed=7, enzyme_count=40, embl_count=60,
                          sprot_count=40)
    reports = []
    for make in (SqliteBackend, MiniDbBackend):
        warehouse = Warehouse(backend=make())
        warehouse.load_corpus(corpus)
        # fig8 runs twice: the repeat is served by the compiled-query
        # cache, so its profile shows the cache.hit counter and no
        # parse/check/compile/execute stages (its SQL statements hang
        # off the root span, as in any traced cache hit)
        for label, query in (("fig8", FIG8), ("fig8-repeat", FIG8),
                             ("fig11", FIG11)):
            report = warehouse.profile(query)
            reports.append(report)
            print(f"--- {label} ---")
            print(format_profile(report, sql=False))
        warehouse.close()
    export_profiles(reports, out)
    print(f"\nwrote {out}")
    return subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "summarize.py"),
         str(out)], cwd=ROOT).returncode


def metrics_smoke(out: Path) -> int:
    """Exercise every instrumented layer once — hound-load a synthetic
    corpus, run the Figure 8/11 queries (fig8 twice for a cache hit),
    refresh — then dump the metrics snapshot, event log and slow-query
    log as ``metrics.json``."""
    import json

    sys.path.insert(0, str(ROOT / "src"))
    from repro.datahounds.transport import InMemoryRepository
    from repro.engine import Warehouse
    from repro.obs import MetricsRegistry
    from repro.synth import build_corpus

    corpus = build_corpus(seed=7, enzyme_count=40, embl_count=60,
                          sprot_count=40)
    registry = MetricsRegistry()
    # slow_query_ms=0 so every query lands in the slow-query log — the
    # smoke must prove SQL + EXPLAIN capture works, not wait for a
    # genuinely slow query
    warehouse = Warehouse(metrics=registry, slow_query_ms=0.0)
    repository = InMemoryRepository(metrics=registry)
    for source, text in corpus.texts().items():
        repository.publish(source, "r1", text)
    hound = warehouse.connect(repository)
    for source in corpus.texts():
        print(hound.load(source))
    for query in (FIG8, FIG8, FIG11):
        warehouse.query(query)
    for source in corpus.texts():
        hound.refresh(source)

    payload = {
        "format": "xomatiq-metrics/1",
        "health": warehouse.health(),
        "metrics": registry.snapshot(),
        "events": [event.to_dict() for event in warehouse.events.events()],
        "slow_queries": warehouse.slow_queries.to_dicts(),
    }
    out.write_text(json.dumps(payload, indent=2, sort_keys=True),
                   encoding="utf-8")
    warehouse.close()

    snapshot = payload["metrics"]
    print(f"\nhealth: {payload['health']['status']}")
    print(f"counters: {len(snapshot['counters'])}  "
          f"gauges: {len(snapshot['gauges'])}  "
          f"histograms: {len(snapshot['histograms'])}")
    print(f"events: {len(payload['events'])}  "
          f"slow queries: {len(payload['slow_queries'])}")
    print(f"wrote {out}")
    return 0


def chaos_smoke() -> int:
    """Harvest a two-release mirror under seeded transport faults
    (transient resets, truncations, corruptions) through the resilient
    transport, and verify the warehouse converges to exactly the
    fault-free document set — counts and entry fingerprints."""
    sys.path.insert(0, str(ROOT / "src"))
    from repro.datahounds import (FaultInjectingRepository, FaultPlan,
                                  InMemoryRepository, ResilientRepository)
    from repro.engine import Warehouse
    from repro.obs import format_health
    from repro.resilience import RetryPolicy
    from repro.synth import build_corpus, mutate_release

    corpus = build_corpus(seed=23, enzyme_count=30, embl_count=30,
                          sprot_count=30)
    releases = {"r1": corpus.texts()}
    releases["r2"] = {source: mutate_release(text, seed=29,
                                             update_fraction=0.3,
                                             remove_fraction=0.1)
                      for source, text in releases["r1"].items()}

    def make_mirror():
        repo = InMemoryRepository()
        for release, texts in releases.items():
            for source, text in texts.items():
                repo.publish(source, release, text)
        return repo

    def state(warehouse):
        counts = {k: v for k, v in warehouse.stats().items()
                  if k.startswith("documents:")}
        prints = {source: fp for source, (__, fp)
                  in warehouse.loader.load_snapshots().items()}
        return counts, prints

    def harvest(warehouse, repo):
        hound = warehouse.connect(repo)
        for release in ("r1", "r2"):
            for source in sorted(releases["r1"]):
                print(f"  {hound.load(source, release)}")

    print("=== fault-free baseline ===")
    baseline = Warehouse()
    harvest(baseline, make_mirror())
    want = state(baseline)
    baseline.close()

    for seed in (11, 23, 47):
        print(f"\n=== chaos seed {seed} ===")
        warehouse = Warehouse()
        plan = FaultPlan(seed=seed).add_source(
            "*", transient_rate=0.15, truncate_rate=0.05,
            corrupt_rate=0.05)
        wrapper = ResilientRepository(
            FaultInjectingRepository(make_mirror(), plan,
                                     sleep=lambda s: None),
            policy=RetryPolicy(max_attempts=8, base_delay_s=0.0,
                               jitter=0.0),
            breaker_threshold=50, sleep=lambda s: None,
            metrics=warehouse.metrics, events=warehouse.events)
        harvest(warehouse, wrapper)
        converged = state(warehouse) == want
        print(f"  faults injected: {plan.injected_total()}  "
              f"converged: {converged}")
        if seed == 47:
            print()
            print(format_health(warehouse.health()))
        warehouse.close()
        if not converged:
            print("chaos harvest DIVERGED from the fault-free state")
            return 1
        if not plan.injected_total():
            print("no faults injected — smoke proves nothing")
            return 1
    print("\nchaos smoke ok: every seed converged")
    return 0


def run(label: str, command: list[str], output: Path | None = None) -> int:
    print(f"\n=== {label}: {' '.join(command)} ===")
    process = subprocess.run(command, cwd=ROOT, capture_output=True,
                             text=True)
    text = process.stdout + process.stderr
    if output is not None:
        output.write_text(text, encoding="utf-8")
    tail = "\n".join(text.splitlines()[-3:])
    print(tail)
    return process.returncode


def main() -> int:
    if "--profile" in sys.argv:
        return profile_smoke(ROOT / "profile_results.json")
    if "--metrics" in sys.argv:
        return metrics_smoke(ROOT / "metrics.json")
    if "--chaos" in sys.argv:
        return chaos_smoke()
    quick = "--quick" in sys.argv
    code = run("tests", [sys.executable, "-m", "pytest", "tests/"],
               ROOT / "test_output.txt")
    if code != 0:
        print("tests failed; aborting")
        return code
    if quick:
        return 0
    code = run("benchmarks",
               [sys.executable, "-m", "pytest", "benchmarks/",
                "--benchmark-only",
                "--benchmark-json", str(ROOT / "bench_results.json")],
               ROOT / "bench_output.txt")
    if code != 0:
        print("benchmarks failed")
        return code
    return run("summary", [sys.executable,
                           str(ROOT / "benchmarks" / "summarize.py"),
                           str(ROOT / "bench_results.json")])


if __name__ == "__main__":
    raise SystemExit(main())
