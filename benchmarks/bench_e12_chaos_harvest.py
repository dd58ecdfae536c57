"""E12 — chaos harvest: convergence and cost under injected faults.

The robustness claim behind the Data Hounds ("without any information
being left out or added twice") has to survive a hostile transport:
connection resets, truncated transfers, corrupted dumps. This
experiment harvests a two-release mirror through a seeded
:class:`FaultInjectingRepository` behind the resilient transport and
asserts the warehouse converges to exactly the fault-free document set
— per-source counts and entry fingerprints — for every fault seed,
while measuring what the chaos costs in wall-clock terms.

Legs:

* fault-free baseline harvest (raw repository),
* fault-free harvest through ``ResilientRepository`` (the wrapper's
  overhead when nothing goes wrong — this is the always-on price),
* chaotic harvest across three fault seeds (the recovery price).

Expected shape: the fault-free resilient leg sits within a few percent
of the baseline (one breaker check + one checksum compare per fetch);
the chaotic legs cost roughly ``1 + injected_fault_rate`` fetches per
release plus retry bookkeeping, and every leg ends in the identical
warehouse state.
"""

import pytest

from repro.datahounds import (
    FaultInjectingRepository,
    FaultPlan,
    InMemoryRepository,
    ResilientRepository,
)
from repro.engine import Warehouse
from repro.relational import SqliteBackend
from repro.resilience import RetryPolicy
from repro.synth import build_corpus, mutate_release

FAULT_SEEDS = [11, 23, 47]
SOURCES = ("hlx_embl", "hlx_enzyme", "hlx_sprot")
SIZES = dict(enzyme_count=40, embl_count=40, sprot_count=40)
RATES = dict(transient_rate=0.15, truncate_rate=0.05, corrupt_rate=0.05)


@pytest.fixture(scope="module")
def mirror_texts():
    """Release texts for a two-release, three-source mirror."""
    corpus = build_corpus(seed=23, **SIZES)
    r1 = corpus.texts()
    r2 = {source: mutate_release(text, seed=29, update_fraction=0.3,
                                 remove_fraction=0.1)
          for source, text in r1.items()}
    return r1, r2


def make_mirror(mirror_texts):
    repo = InMemoryRepository()
    r1, r2 = mirror_texts
    for source, text in r1.items():
        repo.publish(source, "r1", text)
    for source, text in r2.items():
        repo.publish(source, "r2", text)
    return repo


def harvest_releases(warehouse, repo):
    hound = warehouse.connect(repo)
    for release in ("r1", "r2"):
        for source in SOURCES:
            hound.load(source, release)
    return hound


def warehouse_state(warehouse):
    counts = {key: value for key, value in warehouse.stats().items()
              if key.startswith("documents:")}
    fingerprints = {source: dict(fp) for source, (release, fp)
                    in warehouse.loader.load_snapshots().items()}
    return counts, fingerprints


@pytest.fixture(scope="module")
def baseline_state(mirror_texts):
    warehouse = Warehouse(backend=SqliteBackend())
    harvest_releases(warehouse, make_mirror(mirror_texts))
    state = warehouse_state(warehouse)
    warehouse.close()
    return state


def resilient(repo, warehouse):
    return ResilientRepository(
        repo, policy=RetryPolicy(max_attempts=8, base_delay_s=0.0,
                                 jitter=0.0),
        breaker_threshold=50, sleep=lambda s: None,
        metrics=warehouse.metrics, events=warehouse.events)


def test_e12_fault_free_baseline(benchmark, mirror_texts, baseline_state):
    def setup():
        return (Warehouse(backend=SqliteBackend()),
                make_mirror(mirror_texts)), {}

    def run(warehouse, repo):
        harvest_releases(warehouse, repo)
        return warehouse

    warehouse = benchmark.pedantic(run, setup=setup, rounds=3,
                                   iterations=1)
    assert warehouse_state(warehouse) == baseline_state
    benchmark.extra_info["leg"] = "baseline"


def test_e12_resilient_wrapper_fault_free_overhead(benchmark,
                                                   mirror_texts,
                                                   baseline_state):
    """The wrapper's cost when nothing fails — retries never trigger,
    only the breaker check and the per-fetch checksum compare run."""
    def setup():
        warehouse = Warehouse(backend=SqliteBackend())
        return (warehouse,
                resilient(make_mirror(mirror_texts), warehouse)), {}

    def run(warehouse, wrapper):
        harvest_releases(warehouse, wrapper)
        return warehouse

    warehouse = benchmark.pedantic(run, setup=setup, rounds=3,
                                   iterations=1)
    assert warehouse_state(warehouse) == baseline_state
    benchmark.extra_info["leg"] = "resilient-no-faults"


@pytest.mark.parametrize("seed", FAULT_SEEDS)
def test_e12_chaotic_harvest_converges(benchmark, seed, mirror_texts,
                                       baseline_state):
    plans = []

    def setup():
        warehouse = Warehouse(backend=SqliteBackend())
        plan = FaultPlan(seed=seed).add_source("*", **RATES)
        plans.append(plan)
        flaky = FaultInjectingRepository(make_mirror(mirror_texts), plan,
                                         sleep=lambda s: None)
        return (warehouse, resilient(flaky, warehouse)), {}

    def run(warehouse, wrapper):
        harvest_releases(warehouse, wrapper)
        return warehouse

    warehouse = benchmark.pedantic(run, setup=setup, rounds=3,
                                   iterations=1)
    # the chaos property: seeded faults + retries end in exactly the
    # fault-free document set, every seed, every round
    assert warehouse_state(warehouse) == baseline_state
    assert plans[-1].injected_total() > 0     # genuinely chaotic
    benchmark.extra_info["leg"] = f"chaos-seed-{seed}"
    benchmark.extra_info["faults_injected"] = plans[-1].injected_total()
    benchmark.extra_info["faults_by_kind"] = {
        kind: sum(count for (__, k), count in plans[-1].injected.items()
                  if k == kind)
        for kind in ("transient", "truncate", "corrupt")}
