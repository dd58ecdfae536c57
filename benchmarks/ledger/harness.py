"""Shared machinery of the five journeys: run context, order
statistics, the closed loop, answer checking, process memory."""

from __future__ import annotations

import gc
import hashlib
import math
import os
import random
import resource
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from time import perf_counter

from inputs import BLOCK, Op
from spec import Scale
from trace import Recorder


@dataclass
class Context:
    """What one run of one journey is given."""

    seed: int
    scale: Scale
    #: scratch directory inside the checkout (sqlite files, mirrors)
    workdir: Path
    #: set in the traced pass only
    recorder: Recorder | None = None

    def rng(self, purpose: str) -> random.Random:
        """An independent seeded stream per purpose, so adding a draw
        in one place never shifts the inputs of another."""
        return random.Random(f"{self.seed}:{purpose}")


@dataclass
class Measurement:
    """End-to-end outcome of one journey's measured window."""

    metrics: dict[str, float]
    #: sample count behind each timing metric
    samples: dict[str, int]
    attempted: int
    failed: int
    #: free-form facts for the ledger (row counts, hit ratios, digests)
    info: dict = field(default_factory=dict)

    def absorb(self, other: "Measurement") -> None:
        """Fold a further phase of the same run into this one."""
        self.metrics.update(other.metrics)
        self.samples.update(other.samples)
        self.attempted += other.attempted
        self.failed += other.failed
        self.info.update(other.info)


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * share)) - 1]


def remove_database(path) -> None:
    """Delete a sqlite file with its WAL and shared-memory files."""
    for suffix in ("", "-wal", "-shm"):
        try:
            os.remove(f"{path}{suffix}")
        except FileNotFoundError:
            pass


def digest(payload: bytes | str) -> str:
    """Short content hash used for answer checking."""
    if isinstance(payload, str):
        payload = payload.encode("utf-8")
    return hashlib.sha1(payload).hexdigest()


def peak_rss_mb(children: bool = False) -> float:
    """``ru_maxrss`` of this process, or of its waited-for children."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


class Answers:
    """Counts each distinct answer seen per distinct operation, then
    judges them against the oracle once the window has closed — the
    oracle is only consulted for operations that actually ran."""

    def __init__(self):
        self.seen: dict[str, Counter] = defaultdict(Counter)
        self.ops: dict[str, Op] = {}
        self.errors = 0

    def record(self, op: Op, answer_digest: str) -> None:
        """Note one operation's answer."""
        self.seen[op.key][answer_digest] += 1
        self.ops[op.key] = op

    def merge(self, other: "Answers") -> None:
        """Fold another caller's record into this one."""
        for key, counts in other.seen.items():
            self.seen[key].update(counts)
        self.ops.update(other.ops)
        self.errors += other.errors

    @property
    def attempted(self) -> int:
        """Operations attempted: answered plus raised/refused."""
        return self.errors + sum(sum(counts.values())
                                 for counts in self.seen.values())

    def failed(self, oracle) -> int:
        """Operations that raised, were refused, or whose answer is not
        the one ``oracle(op)`` gives."""
        wrong = 0
        for key, counts in self.seen.items():
            expected = oracle(self.ops[key])
            wrong += sum(count for got, count in counts.items()
                         if got != expected)
        return self.errors + wrong


def closed_loop(sequence: list[Op], execute, answers: Answers,
                seconds: float = 0.0, max_ops: int | None = None,
                warmup: float = 0.0, warmed=None
                ) -> list[tuple[str, float, float]]:
    """One caller: issue the next operation when the previous one has
    answered. ``execute(op)`` returns the answer bytes (or raises).
    Runs ``warmup`` seconds unrecorded, collects garbage, calls
    ``warmed()``, then records ``max_ops`` operations or, without a
    count, ``seconds`` seconds; returns ``(kind, latency seconds,
    completed at)`` of every operation in order, the last counted from
    the start of recording."""
    position = 0
    deadline = perf_counter() + warmup
    while perf_counter() < deadline:
        try:
            execute(sequence[position % len(sequence)])
        except Exception:   # noqa: BLE001 - judged in the recorded part
            pass
        position += 1
    position += -position % BLOCK   # record whole blocks of the mix
    gc.collect()
    if warmed is not None:
        warmed()
    done: list[tuple[str, float, float]] = []
    begin = perf_counter()
    while True:
        op = sequence[position % len(sequence)]
        position += 1
        start = perf_counter()
        try:
            answers.record(op, digest(execute(op)))
        except Exception:   # noqa: BLE001 - a failed operation is data
            answers.errors += 1
        end = perf_counter()
        done.append((op.kind, end - start, end - begin))
        if len(done) >= max_ops if max_ops is not None \
                else end - begin >= seconds:
            return done


#: a window's samples are cut into this many consecutive stretches for
#: throughput and tail percentiles, and the median stretch is reported:
#: a stall that hits a minority of them (a neighbour's burst on this
#: shared box, a full collection) then does not move the number
STRETCHES = 10


def stretches(values: list) -> list[list]:
    """``values`` cut, in order, into ``STRETCHES`` equal stretches of
    a whole number of blocks of the mix (fewer stretches when there
    are not enough values); a remainder is left out."""
    size = max(BLOCK, len(values) // STRETCHES // BLOCK * BLOCK)
    return [values[start:start + size]
            for start in range(0, len(values) - size + 1, size)]


def stretch_percentile(values: list[float], share: float) -> float:
    """The median, over the stretches of ``values``, of each stretch's
    nearest-rank percentile."""
    return median([percentile(stretch, share)
                   for stretch in stretches(values)])


def throughput(done: list[tuple[str, float, float]]) -> float:
    """Operations per second of one caller: the median, over its
    stretches, of operations ÷ time taken. A stretch is a whole number
    of blocks of the mix, so all stretches do the same kinds of work.
    """
    rates, previous = [], 0.0
    for stretch in stretches(done):
        rates.append(len(stretch) / (stretch[-1][2] - previous))
        previous = stretch[-1][2]
    return median(rates)


def mix_metrics(callers: list[list[tuple[str, float, float]]]
                ) -> tuple[dict[str, float], dict[str, int]]:
    """The operation-mix end-to-end metrics from what each caller
    recorded: throughput summed over callers, per-kind median latency,
    p95 latency of a typical stretch."""
    everything = [latency for done in callers for _, latency, _ in done]
    metrics = {"ops_per_s": sum(throughput(done) for done in callers),
               "tail_p95_ms": median([
                   percentile([latency for _, latency, _ in stretch], 0.95)
                   for done in callers
                   for stretch in stretches(done)]) * 1e3}
    samples = {"ops_per_s": len(everything), "tail_p95_ms": len(everything)}
    for kind in {kind for done in callers for kind, _, _ in done}:
        values = [latency for done in callers
                  for done_kind, latency, _ in done if done_kind == kind]
        metrics[f"{kind}_p50_ms"] = median(values) * 1e3
        samples[f"{kind}_p50_ms"] = len(values)
    return metrics, samples
