"""Compare two ledgers written by ``run.py --workload all --out``.

    python benchmarks/ledger/compare.py A.json B.json

One row per (workload, end-to-end metric): A's and B's median, B ÷ A
with A as the base, and a verdict against the bound ``BENCHMARK.json``
fixes for that metric:

* ``worse``      — B's median is worse than A's by more than the bound;
* ``unresolved`` — the run-to-run spread of either input (its
  quartile distance over its median, known when the ledger was made
  with ``--repeat``) is wider than the bound, so a difference of that
  size cannot be told from noise;
* ``ok``         — neither.

Rows marked ``phase`` are metrics outside their own workloads (taken
in a short phase after the window, or in set-up); they are judged the
same way, because the driver judges them too. Any rise in a workload's
``failed_share`` is ``worse`` whatever its size. Exit status 1 on any
``worse``.
"""

from __future__ import annotations

import json
import sys

import spec


def spread(cell: dict) -> float:
    """Quartile distance over the median; 0 when there was one run."""
    if "q1" not in cell or not cell["median"]:
        return 0.0
    return (cell["q3"] - cell["q1"]) / abs(cell["median"])


def verdict(old: dict, new: dict, declared: dict) -> tuple[float, str]:
    """``(B ÷ A, verdict)`` of one metric on one workload."""
    ratio = new["median"] / old["median"]
    bound = declared["bound"]
    loss = ratio - 1.0 if declared["better"] == "lower" else 1.0 - ratio
    if max(spread(old), spread(new)) > bound:
        return ratio, "unresolved"
    return ratio, "worse" if loss > bound else "ok"


def compare(ledger_a: dict, ledger_b: dict) -> tuple[list[tuple], bool]:
    """Rows ``(workload, metric, own, A, B, unit, ratio, verdict)`` and
    whether anything got worse."""
    declared = spec.load_benchmark()["end_to_end"]
    rows = []
    for workload, old_entry in ledger_a["workloads"].items():
        new_entry = ledger_b["workloads"].get(workload)
        if new_entry is None:
            continue
        for metric, old in old_entry["end_to_end"].items():
            new = new_entry["end_to_end"].get(metric)
            if new is None:
                continue
            ratio, outcome = verdict(old, new, declared[metric])
            rows.append((workload, metric, old["home"], old["median"],
                         new["median"], old["unit"], ratio, outcome))
        old_share = old_entry["failed_share"]
        new_share = new_entry["failed_share"]
        rose = new_share > old_share
        rows.append((workload, "failed_share", True, old_share, new_share,
                     "ratio", new_share / old_share if old_share
                     else float("inf") if rose else 1.0,
                     "worse" if rose else "ok"))
    return rows, any(row[-1] == "worse" for row in rows)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    with open(argv[0], encoding="utf-8") as handle:
        ledger_a = json.load(handle)
    with open(argv[1], encoding="utf-8") as handle:
        ledger_b = json.load(handle)
    rows, worse = compare(ledger_a, ledger_b)
    print(f"{'workload':<16} {'metric':<26} {'A':>12} {'B':>12} "
          f"{'unit':<7} {'B/A':>7}  verdict   (base: A = {argv[0]})")
    for workload, metric, own, old, new, unit, ratio, outcome in rows:
        print(f"{workload:<16} {metric:<26} {old:>12.5g} {new:>12.5g} "
              f"{unit:<7} {ratio:>7.3f}  {outcome}{'' if own else '  phase'}")
    return 1 if worse else 0


if __name__ == "__main__":
    raise SystemExit(main())
