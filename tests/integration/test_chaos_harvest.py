"""Chaos harvesting: seeded transport faults + the resilience layer
must converge the warehouse to exactly the fault-free document set —
same per-source counts, same entry fingerprints — including across a
simulated process restart (on-disk warehouse, new process' hound
restored from persisted snapshots)."""

import pytest

from repro.datahounds import (
    FaultInjectingRepository,
    FaultPlan,
    InMemoryRepository,
    ResilientRepository,
)
from repro.engine import Warehouse
from repro.relational.sqlite_backend import SqliteBackend
from repro.resilience import RetryPolicy
from repro.synth import build_corpus, mutate_release

SOURCES = ("hlx_embl", "hlx_enzyme", "hlx_sprot")


def make_mirror():
    """Two releases of a small three-source corpus."""
    corpus = build_corpus(seed=11, enzyme_count=8, embl_count=8,
                          sprot_count=8)
    repo = InMemoryRepository()
    r1 = corpus.texts()
    corpus.publish_to(repo, "r1")
    for source, text in r1.items():
        repo.publish(source, "r2",
                     mutate_release(text, seed=5, update_fraction=0.3,
                                    remove_fraction=0.1))
    return repo


def chaos_wrapper(repo, seed, warehouse):
    """Seeded faults on every source, behind the resilient transport."""
    plan = FaultPlan(seed=seed).add_source(
        "*", transient_rate=0.15, truncate_rate=0.05, corrupt_rate=0.05)
    flaky = FaultInjectingRepository(repo, plan, sleep=lambda s: None)
    return ResilientRepository(
        flaky,
        policy=RetryPolicy(max_attempts=8, base_delay_s=0.0, jitter=0.0),
        breaker_threshold=50, sleep=lambda s: None,
        metrics=warehouse._metrics_sink, events=warehouse.events), plan


def harvest_releases(warehouse, repo):
    hound = warehouse.connect(repo)
    for release in ("r1", "r2"):
        for source in SOURCES:
            hound.load(source, release)


def warehouse_state(warehouse):
    """Comparable content state: per-source counts + persisted entry
    fingerprints (content hashes, so equal maps mean equal documents)."""
    stats = warehouse.stats()
    counts = {key: value for key, value in stats.items()
              if key.startswith("documents:")}
    fingerprints = {source: dict(fp) for source, (release, fp)
                    in warehouse.loader.load_snapshots().items()}
    return counts, fingerprints


@pytest.fixture(scope="module")
def baseline_state():
    warehouse = Warehouse()
    harvest_releases(warehouse, make_mirror())
    state = warehouse_state(warehouse)
    warehouse.close()
    return state


@pytest.mark.parametrize("seed", [11, 23, 47])
def test_chaotic_harvest_converges_to_fault_free_state(seed,
                                                       baseline_state):
    warehouse = Warehouse()
    wrapper, plan = chaos_wrapper(make_mirror(), seed, warehouse)
    harvest_releases(warehouse, wrapper)
    assert warehouse_state(warehouse) == baseline_state
    # the run must actually have been chaotic, or this test says nothing
    assert plan.injected_total() > 0
    warehouse.close()


def test_chaotic_harvest_converges_across_restart(tmp_path,
                                                  baseline_state):
    """Crash between releases: the first process loads r1 under faults
    and exits; a second process attaches to the same on-disk warehouse,
    restores the persisted snapshots, and refreshes to r2 — ending in
    exactly the fault-free state, nothing lost, nothing loaded twice."""
    db = tmp_path / "wh.sqlite"
    repo = make_mirror()

    first = Warehouse(backend=SqliteBackend(db))
    wrapper, plan = chaos_wrapper(repo, seed=23, warehouse=first)
    hound = first.connect(wrapper)
    for source in SOURCES:
        hound.load(source, "r1")
    injected_before_restart = plan.injected_total()
    first.close()

    second = Warehouse(backend=SqliteBackend(db), create=False)
    wrapper, plan = chaos_wrapper(repo, seed=47, warehouse=second)
    hound = second.connect(wrapper)
    for source in SOURCES:
        # restored snapshots make these incremental refreshes, not
        # full re-loads
        assert hound.loaded_release(source) == "r1"
        report = hound.load(source, "r2")
        assert len(report.plan.unchanged) > 0
    assert warehouse_state(second) == baseline_state
    assert injected_before_restart + plan.injected_total() > 0
    second.close()


def test_chaotic_harvest_is_deterministic(baseline_state):
    """Same fault seed → byte-identical fault sequence → identical
    retry counters, not just identical final state."""
    def run(seed):
        from repro.obs import MetricsRegistry
        warehouse = Warehouse(metrics=MetricsRegistry())
        wrapper, plan = chaos_wrapper(make_mirror(), seed, warehouse)
        harvest_releases(warehouse, wrapper)
        retries = {source: warehouse.metrics.get_counter(
            "transport.retries", source=source) for source in SOURCES}
        injected = dict(plan.injected)
        warehouse.close()
        return retries, injected

    assert run(11) == run(11)
