"""What the ledger declares: metric names, units, bounds, homes, scales.

``BENCHMARK.json`` at the repository root is the single source of the
metric names, units, directions and bounds (``load_benchmark``); this
module adds the two things the contract file has no room for:

* ``HOME`` — which workloads *own* each end-to-end metric: the ones
  whose measured window produces it and on which a perf claim may name
  it. Every run still reports every metric, because every workload's
  warehouse is built, queried and kept fresh; outside its home
  workloads a metric comes from a short phase after the window.
* ``Scale`` — corpus sizes and fixed counts, ``FULL`` for the ledger
  and ``SMOKE`` for the self-tests.
"""

from __future__ import annotations

import functools
import json
import sys
from dataclasses import dataclass
from pathlib import Path

LEDGER_DIR = Path(__file__).resolve().parent
ROOT = LEDGER_DIR.parents[1]
SRC = ROOT / "src"


def bootstrap() -> None:
    """Put the program under test on ``sys.path``; exit non-zero when
    the checkout has no program (a directory holding only the
    benchmark's own files)."""
    if not (SRC / "repro" / "engine.py").is_file():
        raise SystemExit(f"ledger: no program to measure — {SRC}/repro "
                         f"is missing; run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


INGEST, HARVEST, QUERY, SERVE, FEDERATED = WORKLOADS = [
    "ingest_release", "harvest_delta", "query_library", "serve_mixed",
    "federated_join"]
_MIXES = (QUERY, SERVE, FEDERATED)

#: scratch inside the checkout (sqlite files, per-run records);
#: each run works in a directory of its own under it and removes it
WORK_ROOT = ROOT / ".ledger_work"


@functools.cache
def load_benchmark() -> dict:
    """``BENCHMARK.json`` with its metric lists keyed by name."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for section in ("end_to_end", "per_layer"):
        declared[section] = {metric["name"]: metric
                             for metric in declared[section]}
    return declared


#: end-to-end metric → the workloads that own it
HOME: dict[str, tuple[str, ...]] = {
    "setup_s": tuple(WORKLOADS),
    "peak_rss_mb": tuple(WORKLOADS),
    "ingest_docs_per_s": (INGEST,),
    "db_bytes_per_input_byte": (INGEST,),
    "delta_docs_per_s": (HARVEST,),
    "delivery_lag_p50_ms": (HARVEST,),
    "delivery_lag_p90_ms": (HARVEST,),
    "ops_per_s": _MIXES,
    "keyword_p50_ms": _MIXES,
    "subtree_p50_ms": _MIXES,
    "join_p50_ms": _MIXES,
    "document_p50_ms": (QUERY, SERVE),
    "tail_p95_ms": _MIXES,
}

#: the metric `trace.overhead_share` compares between the two passes
HEADLINE: dict[str, str] = {
    INGEST: "ingest_docs_per_s", HARVEST: "delta_docs_per_s",
    QUERY: "ops_per_s", SERVE: "ops_per_s", FEDERATED: "ops_per_s"}

@dataclass(frozen=True)
class Scale:
    """Input sizes (ENZYME, EMBL, Swiss-Prot entries) and counts."""

    name: str
    ingest_corpus: tuple[int, int, int]
    harvest_corpus: tuple[int, int, int]
    query_corpus: tuple[int, int, int]
    #: distinct query texts of the query_library mix (4x the cache)
    query_texts: int
    #: documents re-checked against the transformer after an ingest
    ingest_samples: int
    #: floor under the time-bounded loop of harvest rounds
    min_rounds: int
    #: window of a phase that is not the workload's own (the query
    #: side of a write workload, the harvest side of a query workload)
    phase_seconds: float
    #: operations of one traced pass over an operation mix
    traced_ops: int
    traced_rounds: int


FULL = Scale("full", (1500, 1500, 1500), (2000, 300, 300),
             (1000, 1000, 1000), query_texts=512, ingest_samples=20,
             min_rounds=30, phase_seconds=4.0, traced_ops=300,
             traced_rounds=30)
SMOKE = Scale("smoke", (60, 60, 60), (200, 40, 40), (80, 80, 80),
              query_texts=64, ingest_samples=5, min_rounds=20, phase_seconds=0.5, traced_ops=60,
              traced_rounds=8)

#: standing-query subscribers of harvest_delta, shared over 3 queries
SUBSCRIBERS = 8
#: share of ENZYME entries whose description changes / that vanish
#: per release (the vanished ones return in the next release)
UPDATE_SHARE = 0.01
REMOVE_SHARE = 0.0025
#: shards of federated_join: s0 holds ENZYME + Swiss-Prot whole
SHARDS = 4
#: closed-loop HTTP clients of serve_mixed (= nproc of the ledger box)
CLIENTS = 2
