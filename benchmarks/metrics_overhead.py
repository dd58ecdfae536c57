"""Guardrail: always-on observability must cost < 5% on the hot path.

The observability plane is on by default, so its price is a product
property, not a benchmark curiosity. This script times the E2
repeated-keyword leg (the paper's Figure 8 query served from the
compiled-query cache — the cheapest real query we have, i.e. the one
where fixed per-query overhead shows up largest) and gates each
plane's *incremental* cost — what enabling it adds on top of what is
already running, which is how the planes actually stack in service:

* ``metrics``: ``Warehouse()`` default (metrics on, instrumented
  backend) vs ``Warehouse(metrics=False)`` (plane off, backend
  unwrapped) — the original always-on guarantee;
* ``trace``:  metrics + ``enable_tracing()`` (per-request spans,
  per-statement SQL records, bounded span ring — the query service's
  always-on configuration) vs the metrics-only warehouse — the price
  of tracing over the plane it requires;
* ``subscriptions``: one incremental standing-query refresh
  (``StandingEvaluation.apply`` on a small delta — the subscription
  engine's hot path, run once per harvest commit per standing query)
  with the evaluation's own metric emission on vs off, both over a
  metrics-instrumented warehouse — the subscription plane's increment
  on top of the metrics plane it stacks on (the backend's
  per-statement instrumentation is already priced by ``metrics``).

Each increment must clear the threshold independently. The increments
are gated separately rather than summed against the bare warehouse
because each answers the operative question — "what does turning
this on cost me on top of what I already run?" — and a combined gate
would re-charge the tracing arm for the metrics plane it sits on.

Measurement: rounds alternate one off-batch and one on-batch (order
swapping each round, GC paused). Batches are timed with
``time.process_time`` — the instrumentation cost is pure CPU work
(the warehouses are in-memory), and CPU time is immune to the
involuntary-preemption noise (other tenants, hypervisor steal) that
makes wall-clock thresholds flaky on shared single-core runners.
Two estimators are computed per attempt and the smaller decides:

* **floor-to-floor** — the ratio of the two per-arm minima. Residual
  noise is strictly additive, so the fastest batch of each arm is
  its closest approach to the noise-free cost; fragile only when one
  arm never gets a quiet round.
* **median paired ratio** — the median of per-round on/off ratios
  from batches run back-to-back; robust to slow drift, fragile when
  bursts are frequent enough to land inside most pairs.

Neither is systematically low, so the smaller of the two is still an
honest estimate and survives whichever noise regime the host is in.
Batches must be long enough (~50 ms+) to dominate the clock's
granularity. Because every noise source inflates the estimate and
none deflates it, a sub-threshold reading is conclusive while an
over-threshold one may just be a bad window — so the check
re-measures (fresh warehouses, up to ``--attempts`` times) before
failing. Exit status 1 when every attempt exceeds the threshold — CI
runs this as a step.

Usage::

    python benchmarks/metrics_overhead.py [--rounds 15] [--per-round 100]
        [--threshold 5.0] [--attempts 3]
"""

from __future__ import annotations

import argparse
import gc
import sys
from pathlib import Path
from time import process_time

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

FIG8 = '''FOR $a IN document("hlx_embl.inv")/hlx_n_sequence,
     $b IN document("hlx_sprot.all")/hlx_n_sequence
WHERE contains ($a, "cdc6", any)
AND   contains ($b, "cdc6", any)
RETURN
     $b//sprot_accession_number,
     $a//embl_accession_number'''


def build_warehouse(metrics, trace=False):
    from repro.engine import Warehouse
    from repro.synth import build_corpus
    corpus = build_corpus(seed=7, enzyme_count=40, embl_count=60,
                          sprot_count=40)
    warehouse = Warehouse(metrics=metrics)
    if trace:
        # the service's configuration: tracing always-on with a
        # bounded ring, so spans can't accumulate across the run
        warehouse.enable_tracing(max_spans=64)
    warehouse.load_corpus(corpus)
    warehouse.query(FIG8)   # prime the compiled-query cache
    return warehouse


SUBSCRIPTION_QUERY = '''FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
RETURN $a//enzyme_id'''


def build_subscription_arm(instrumented: bool):
    """A primed standing evaluation plus a small synthetic delta event
    over entries that exist — ``apply`` takes the incremental path and
    lands back on the same snapshot every time, so batches are
    steady-state. Both arms run over a metrics-instrumented warehouse;
    ``instrumented`` toggles only the evaluation's own emission."""
    from repro.datahounds.triggers import ChangeEvent
    from repro.obs import MetricsRegistry, NullMetrics
    from repro.subscriptions import StandingEvaluation
    warehouse = build_warehouse(metrics=MetricsRegistry())
    evaluation = StandingEvaluation(warehouse, SUBSCRIPTION_QUERY)
    if not instrumented:
        evaluation._metrics = NullMetrics()
    evaluation.refresh_full()
    keys = [key for (key,) in warehouse.backend.execute(
        "SELECT entry_key FROM documents WHERE source = 'hlx_enzyme' "
        "ORDER BY entry_key LIMIT 5")]
    event = ChangeEvent(source="hlx_enzyme", release="r2",
                        updated=tuple(keys))
    return warehouse, evaluation, event


def time_batch(arm, per_round: int) -> float:
    if isinstance(arm, tuple):           # subscriptions leg
        __, evaluation, event = arm
        start = process_time()
        for __ in range(per_round):
            evaluation.apply(event)
        return process_time() - start
    start = process_time()
    for __ in range(per_round):
        arm.query(FIG8)
    return process_time() - start


def measure(rounds: int, per_round: int,
            leg: str = "metrics") -> tuple[float, float, float]:
    """One full measurement: (best_off, best_on, median paired ratio).

    ``metrics`` compares metrics-on against bare; ``trace`` compares
    metrics+tracing against metrics-on (tracing's increment over the
    plane it stacks on); ``subscriptions`` compares one incremental
    standing-query refresh with the evaluation's metric emission on
    vs off over an instrumented warehouse. Builds fresh warehouses so
    a retry also re-rolls allocation layout, not just scheduler
    luck."""
    from repro.obs import MetricsRegistry
    if leg == "trace":
        off = build_warehouse(metrics=MetricsRegistry())
        on = build_warehouse(metrics=MetricsRegistry(), trace=True)
    elif leg == "subscriptions":
        off = build_subscription_arm(instrumented=False)
        on = build_subscription_arm(instrumented=True)
    else:
        off = build_warehouse(metrics=False)
        on = build_warehouse(metrics=MetricsRegistry())
    time_batch(off, per_round)   # warm both up
    time_batch(on, per_round)
    ratios = []
    best_off = best_on = float("inf")
    # a collection landing inside one batch of a pair would skew that
    # ratio by far more than the effect under test
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for round_index in range(rounds):
            gc.collect()
            if round_index % 2:       # alternate order inside the pair
                t_on = time_batch(on, per_round)
                t_off = time_batch(off, per_round)
            else:
                t_off = time_batch(off, per_round)
                t_on = time_batch(on, per_round)
            ratios.append(t_on / t_off)
            best_off = min(best_off, t_off)
            best_on = min(best_on, t_on)
    finally:
        if gc_was_enabled:
            gc.enable()
    for arm in (off, on):
        (arm[0] if isinstance(arm, tuple) else arm).close()
    ratios.sort()
    return best_off, best_on, ratios[len(ratios) // 2]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=15)
    parser.add_argument("--per-round", type=int, default=100)
    parser.add_argument("--threshold", type=float, default=5.0,
                        help="max allowed overhead in percent")
    parser.add_argument("--attempts", type=int, default=3,
                        help="re-measure up to N times before failing "
                        "(noise only ever inflates the estimate, so "
                        "one clean sub-threshold reading settles it)")
    args = parser.parse_args()

    failed = []
    for label in ("metrics", "trace", "subscriptions"):
        for attempt in range(args.attempts):
            best_off, best_on, median_ratio = measure(
                args.rounds, args.per_round, leg=label)
            floor_pct = (best_on / best_off - 1.0) * 100.0
            median_pct = (median_ratio - 1.0) * 100.0
            overhead = min(floor_pct, median_pct)
            per_query_us = (best_on - best_off) / args.per_round * 1e6
            print(f"[{label}] off: {best_off * 1000:.2f} ms / "
                  f"{args.per_round} queries "
                  f"(best of {args.rounds} rounds)")
            print(f"[{label}] on:  {best_on * 1000:.2f} ms / "
                  f"{args.per_round} queries "
                  f"(best of {args.rounds} rounds)")
            print(f"[{label}] overhead: {overhead:+.2f}% "
                  f"(floor-to-floor {floor_pct:+.2f}%, "
                  f"{per_query_us:+.1f} us/query; "
                  f"median paired ratio {median_pct:+.2f}%)")
            if overhead <= args.threshold:
                print(f"[{label}] OK: within "
                      f"{args.threshold:.1f}% threshold")
                break
            remaining = args.attempts - attempt - 1
            if remaining:
                print(f"[{label}] above {args.threshold:.1f}% "
                      f"threshold — noisy run? re-measuring "
                      f"({remaining} attempt(s) left)")
        else:
            failed.append(label)
    if failed:
        print(f"FAIL: {', '.join(failed)} overhead exceeds "
              f"{args.threshold:.1f}% threshold in "
              f"{args.attempts} attempts")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
