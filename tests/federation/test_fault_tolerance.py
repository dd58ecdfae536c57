"""Query-path fault tolerance: replicas, breakers, hedging, deadlines,
and the chaos harness that drives them.

Every test injects faults through :mod:`repro.federation.chaos` (no
real network, no real shard kills) and time through the executor's
injectable ``clock``/``sleep`` where the code path allows it — the
threaded attempt path coordinates on real queue timeouts, so its tests
use event-driven stalls with tight safety valves instead of sleeps.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.errors import ShardConfigError, StorageError
from repro.federation import FederatedXomatiQ, ShardCatalog
from repro.federation.catalog import shard_of
from repro.federation.chaos import (
    ChaosPlan,
    ChaosSpec,
    FaultInjectingBackend,
    inject_faults,
)
from repro.federation.executor import FaultPolicy
from repro.obs import MetricsRegistry
from repro.resilience import CLOSED, OPEN, ManualClock
from tests.federation.conftest import (
    FIG11_JOIN,
    ROUTING_PER_SOURCE,
    build_federation,
)

#: FIG11 touches s0 (enzyme) and s1 (embl) under ROUTING_PER_SOURCE;
#: chaos lands on s1 so the join's bigger leg is the one that fails
FAULTY = "s1"


def fault_federation(corpus, replicas=0, policy=None, plan=None,
                     trace=None):
    """A federation plus a chaos wrapper on the faulty shard's primary."""
    registry = MetricsRegistry()
    federation = build_federation(corpus, ROUTING_PER_SOURCE,
                                  metrics=registry, replicas=replicas,
                                  fault_policy=policy, trace=trace)
    chaos = inject_faults(federation.catalog.warehouse(FAULTY),
                          plan=plan, name=FAULTY)
    return federation, chaos, registry


def plan_then_arm(federation, chaos_by_backend):
    """Plan the FIG11 join while every backend is clean, then arm the
    chaos plans — scripted and stalled outcomes land on the executor's
    attempt path (the subject under test), not on the planner's
    document-existence probes. Returns the federated plan for
    ``federation.executor.execute``."""
    fplan = federation.plan(FIG11_JOIN)
    for wrapper, chaos_plan in chaos_by_backend.items():
        wrapper.plan = chaos_plan
    return fplan


class TestReplicaCatalog:
    def test_replicas_get_derived_backend_names(self):
        catalog = ShardCatalog()
        catalog.add_shard("s0")
        first = catalog.add_replica("s0")
        second = catalog.add_replica("s0")
        assert first.name == "s0#r0" and second.name == "s0#r1"
        assert catalog.backends_for("s0") == ["s0", "s0#r0", "s0#r1"]
        assert [spec.name for spec in catalog.replicas("s0")] \
            == ["s0#r0", "s0#r1"]
        assert shard_of("s0#r1") == "s0"
        assert catalog.spec("s0#r1").name == "s0#r1"

    def test_replica_sep_reserved_in_shard_names(self):
        catalog = ShardCatalog()
        with pytest.raises(ShardConfigError, match="reserved"):
            catalog.add_shard("s0#r0")

    def test_replica_requires_known_shard(self):
        with pytest.raises(ShardConfigError, match="unknown shard"):
            ShardCatalog().add_replica("nope")

    def test_registry_round_trips_replicas(self, tmp_path):
        catalog = ShardCatalog()
        catalog.add_shard("s0", path=str(tmp_path / "s0.sqlite"))
        catalog.add_replica("s0", path=str(tmp_path / "s0r.sqlite"))
        catalog.assign("hlx_enzyme", "s0")
        reloaded = ShardCatalog.from_dict(catalog.to_dict())
        assert reloaded.backends_for("s0") == ["s0", "s0#r0"]
        assert reloaded.spec("s0#r0").path == str(tmp_path / "s0r.sqlite")
        assert reloaded.to_dict() == catalog.to_dict()


class TestSharedResilience:
    def test_harvest_plane_reexports_shared_primitives(self):
        # the harvest wrapper builds its retry policy and per-source
        # breakers from repro.resilience, the same classes the query
        # path uses; there is no second copy under repro.datahounds
        from repro import resilience as shared
        from repro.datahounds import resilience as harvest
        clock = ManualClock()
        wrapper = harvest.ResilientRepository(None, clock=clock)
        assert type(wrapper.policy) is shared.RetryPolicy
        breaker = wrapper.breaker("embl")
        assert type(breaker) is shared.CircuitBreaker
        assert breaker.clock is clock
        assert not hasattr(harvest, "ManualClock")

    def test_breakers_run_on_the_injected_clock(self):
        from repro.resilience import CircuitBreaker
        clock = ManualClock()
        breaker = CircuitBreaker("b", failure_threshold=2, cooldown_s=10.0,
                                 clock=clock)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.allow()
        clock.advance(10.5)
        assert breaker.allow()          # half-open probe
        breaker.record_success()
        assert breaker.state == CLOSED


class TestFailover:
    def test_dead_primary_fails_over_byte_identical(self, corpus, mono):
        policy = FaultPolicy(hedge=False)
        federation, chaos, registry = fault_federation(
            corpus, replicas=1, policy=policy)
        try:
            chaos.force("error")
            result = federation.query(FIG11_JOIN)
            assert result.complete and not result.failed_shards
            assert result.to_xml() == mono.query(FIG11_JOIN).to_xml()
            assert registry.get_counter("federation.failovers",
                                        shard=FAULTY) >= 1
        finally:
            federation.close()

    def test_replica_answers_keep_the_shard_name(self, corpus):
        policy = FaultPolicy(hedge=False)
        federation, chaos, registry = fault_federation(
            corpus, replicas=1, policy=policy)
        try:
            chaos.force("error")
            result = federation.query(FIG11_JOIN)
            shards = {binding.shard for row in result
                      for binding in row.bindings.values()}
            # bindings name the logical shard, not the replica backend,
            # so document fetch and dedup behave as if the primary spoke
            assert FAULTY in shards and f"{FAULTY}#r0" not in shards
        finally:
            federation.close()

    def test_same_backend_retry_before_failover(self, corpus):
        policy = FaultPolicy(hedge=False, retries_per_backend=2)
        federation, chaos, registry = fault_federation(
            corpus, policy=policy)
        try:
            fplan = plan_then_arm(federation, {
                chaos: ChaosPlan().fail_then_succeed(FAULTY, 1)})
            result = federation.executor.execute(fplan)
            assert result.complete
            assert registry.get_counter("federation.shard_retries",
                                        shard=FAULTY) == 1
            assert registry.counter_total("federation.failovers") == 0
        finally:
            federation.close()

    @pytest.mark.parametrize("replicas", [0, 1], ids=["alone", "replica"])
    def test_retry_starts_after_the_delay(self, corpus, replicas):
        # a replica (with hedging armed but far off) used to route the
        # subquery onto an attempt loop that dropped the retry delay
        policy = FaultPolicy(retries_per_backend=2, retry_delay_s=0.2,
                             hedge_delay_s=30.0)
        federation, chaos, registry = fault_federation(
            corpus, replicas=replicas, policy=policy)
        starts: list[tuple[str, float]] = []
        query_backend = federation.executor._query_backend

        def recording(text, ast, backend):
            starts.append((backend, time.monotonic()))
            return query_backend(text, ast, backend)

        federation.executor._query_backend = recording
        try:
            fplan = plan_then_arm(federation, {
                chaos: ChaosPlan().fail_then_succeed(FAULTY, 1)})
            assert federation.executor.execute(fplan).complete
            first, retry = [at for backend, at in starts
                            if backend == FAULTY]
            assert retry - first >= 0.2
            assert registry.get_counter("federation.shard_retries",
                                        shard=FAULTY) == 1
            assert registry.counter_total("federation.failovers") == 0
        finally:
            federation.close()

    def test_no_replica_degrades_to_partial(self, corpus):
        policy = FaultPolicy(hedge=False)
        federation, chaos, registry = fault_federation(
            corpus, policy=policy)
        try:
            chaos.force("error")
            result = federation.query(FIG11_JOIN)
            assert not result.complete
            assert result.failed_shards == [FAULTY]
            assert any(FAULTY in warning for warning in result.warnings)
            assert registry.counter_total("federation.partial_results") == 1
        finally:
            federation.close()


class TestCircuitBreaker:
    def test_breaker_opens_then_skips_the_dead_backend(self, corpus):
        policy = FaultPolicy(hedge=False, breaker_threshold=2,
                             breaker_cooldown_s=60.0)
        federation, chaos, registry = fault_federation(
            corpus, replicas=1, policy=policy)
        federation.executor.clock = ManualClock()
        try:
            chaos.force("error")
            federation.query(FIG11_JOIN)     # failure 1 on the primary
            federation.query(FIG11_JOIN)     # failure 2 → breaker opens
            states = federation.executor.breaker_states()
            assert states[FAULTY]["state"] == "open"
            assert states[FAULTY]["consecutive_failures"] == 2
            before = registry.get_counter("federation.breaker_skips",
                                          backend=FAULTY)
            result = federation.query(FIG11_JOIN)
            assert result.complete           # replica still answers
            assert registry.get_counter("federation.breaker_skips",
                                        backend=FAULTY) > before
            # the primary was skipped, not retried: no new failures
            assert federation.executor.breaker_states()[FAULTY][
                "consecutive_failures"] == 2
        finally:
            federation.close()

    def test_breaker_recovers_after_cooldown(self, corpus):
        policy = FaultPolicy(hedge=False, breaker_threshold=1,
                             breaker_cooldown_s=30.0)
        federation, chaos, registry = fault_federation(
            corpus, replicas=1, policy=policy)
        clock = ManualClock()
        federation.executor.clock = clock
        try:
            chaos.force("error")
            federation.query(FIG11_JOIN)
            assert federation.executor.breaker_states()[FAULTY][
                "state"] == "open"
            chaos.restore()
            clock.advance(31.0)
            result = federation.query(FIG11_JOIN)    # half-open probe
            assert result.complete
            assert federation.executor.breaker_states()[FAULTY][
                "state"] == "closed"
        finally:
            federation.close()

    def test_all_backends_open_degrades_to_partial(self, corpus):
        policy = FaultPolicy(hedge=False, breaker_threshold=1,
                             breaker_cooldown_s=60.0)
        federation, chaos, registry = fault_federation(
            corpus, policy=policy)
        federation.executor.clock = ManualClock()
        try:
            chaos.force("error")
            federation.query(FIG11_JOIN)     # opens the only breaker
            chaos.restore()
            result = federation.query(FIG11_JOIN)
            assert not result.complete
            assert result.failed_shards == [FAULTY]
            assert any("circuit breaker" in warning
                       for warning in result.warnings)
        finally:
            federation.close()

    def test_health_reports_breaker_and_replica_state(self, corpus):
        policy = FaultPolicy(hedge=False, breaker_threshold=1,
                             breaker_cooldown_s=60.0)
        federation, chaos, registry = fault_federation(
            corpus, replicas=1, policy=policy)
        try:
            chaos.force("error")
            federation.query(FIG11_JOIN)
            report = federation.health()
            assert report["status"] == "warn"
            checks = {check["name"]: check for check in report["checks"]}
            breaker_check = checks[f"breaker:{FAULTY}"]
            assert breaker_check["status"] == "warn"
            assert "skipped" in breaker_check["detail"]
            assert report["federation"]["breakers"][FAULTY][
                "state"] == "open"
            replicas = report["federation"]["replicas"]
            assert replicas[FAULTY]  # replica states listed per shard
        finally:
            federation.close()


#: a stall schedule with a tight safety valve — if interruption ever
#: breaks, tests error out in seconds instead of the default 30
STALL = dict(stall_rate=1.0, stall_s=5.0)


class TestHedging:
    def test_hedge_outraces_a_stalled_primary(self, corpus, mono):
        # hedge_delay_s=0.0 fires the hedge immediately; the stalled
        # primary loses, is interrupted, and its breaker takes the hit
        policy = FaultPolicy(hedge=True, hedge_delay_s=0.0,
                             breaker_threshold=3)
        federation, chaos, registry = fault_federation(
            corpus, replicas=1, policy=policy)
        try:
            fplan = plan_then_arm(federation, {
                chaos: ChaosPlan().add_backend(FAULTY, **STALL)})
            result = federation.executor.execute(fplan)
            assert result.complete
            assert result.to_xml() == mono.query(FIG11_JOIN).to_xml()
            assert registry.get_counter("federation.hedges",
                                        shard=FAULTY) >= 1
            assert registry.get_counter("federation.hedge_wins",
                                        shard=FAULTY) >= 1
            # losing the race counts against the stalled primary
            assert federation.executor.breaker_states()[FAULTY][
                "consecutive_failures"] >= 1
            assert chaos.injected.get("stall", 0) >= 1
        finally:
            federation.close()

    def test_repeated_hedge_losses_open_the_primary_breaker(self, corpus):
        policy = FaultPolicy(hedge=True, hedge_delay_s=0.0,
                             breaker_threshold=2,
                             breaker_cooldown_s=60.0)
        federation, chaos, registry = fault_federation(
            corpus, replicas=1, policy=policy)
        try:
            fplan = plan_then_arm(federation, {
                chaos: ChaosPlan().add_backend(FAULTY, **STALL)})
            for __ in range(3):
                assert federation.executor.execute(fplan).complete
            assert federation.executor.breaker_states()[FAULTY][
                "state"] == "open"
            # once open, the stalled primary is not even attempted:
            # queries settle at replica speed with no stall injected
            assert registry.get_counter("federation.breaker_skips",
                                        backend=FAULTY) >= 1
        finally:
            federation.close()


class TestDeadline:
    def test_deadline_abandons_stalled_shard(self, corpus):
        policy = FaultPolicy(hedge=True, hedge_delay_s=0.0,
                             breaker_threshold=5)
        federation, chaos, registry = fault_federation(
            corpus, replicas=1, policy=policy)
        replica = inject_faults(
            federation.catalog.warehouse(f"{FAULTY}#r0"),
            name=f"{FAULTY}#r0")
        try:
            # primary AND replica stall: nothing can answer for s1, so
            # the deadline ends the wait — well before the 5s valve
            stall = ChaosPlan().add_backend("*", **STALL)
            fplan = plan_then_arm(federation,
                                  {chaos: stall, replica: stall})
            started = time.perf_counter()
            result = federation.executor.execute(fplan, deadline_s=0.3)
            elapsed = time.perf_counter() - started
            assert not result.complete
            assert result.failed_shards == [FAULTY]
            assert elapsed < 3.0
            assert registry.counter_total("federation.interrupts") >= 1
        finally:
            federation.close()

    def test_trace_spans_annotate_attempts_and_backend(self, corpus):
        policy = FaultPolicy(hedge=False)
        federation, chaos, registry = fault_federation(
            corpus, replicas=1, policy=policy, trace=True)
        try:
            chaos.force("error")
            federation.query(FIG11_JOIN)
            root = federation.tracer.last_span("federated_query")
            span = next(s for s in root.children
                        if s.name == "shard_subquery"
                        and s.meta.get("shard") == FAULTY)
            assert span.meta["backend"] == f"{FAULTY}#r0"
            assert span.meta["attempts"] == 2
        finally:
            federation.close()


class TestChaosHarness:
    def test_plan_is_deterministic_and_replayable(self):
        plan = ChaosPlan(seed=11).add_backend(
            "s0", error_rate=0.3, stall_rate=0.2)
        first = [plan.next_outcome("s0") for __ in range(40)]
        plan.reset()
        second = [plan.next_outcome("s0") for __ in range(40)]
        assert first == second
        assert {"error", "stall"} & set(first)   # rates actually fire
        assert plan.injected == {
            ("s0", kind): second.count(kind)
            for kind in ("error", "stall") if kind in second}

    def test_per_backend_rngs_ignore_interleaving(self):
        plan = ChaosPlan(seed=7).add_backend("*", error_rate=0.5)
        solo = [plan.next_outcome("s0") for __ in range(20)]
        plan.reset()
        mixed = []
        for __ in range(20):
            mixed.append(plan.next_outcome("s0"))
            plan.next_outcome("s1")      # interleaved traffic
        assert solo == mixed

    def test_script_consumed_before_rates(self):
        plan = ChaosPlan().fail_then_succeed("s0", 2)
        outcomes = [plan.next_outcome("s0") for __ in range(4)]
        assert outcomes == ["error", "error", "ok", "ok"]

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="sum"):
            ChaosSpec(error_rate=0.7, stall_rate=0.5)
        with pytest.raises(ValueError, match="unknown scripted"):
            ChaosSpec(script=("explode",))
        with pytest.raises(ValueError, match="unknown forced"):
            FaultInjectingBackend(inner=None).force("explode")

    def test_forced_error_counts_and_restores(self):
        class Inner:
            name = "inner"

            def execute(self, sql, params=()):
                return "rows"

        backend = FaultInjectingBackend(Inner(), name="s0")
        backend.force("error")
        with pytest.raises(StorageError, match="injected error"):
            backend.execute("SELECT 1")
        backend.restore()
        assert backend.execute("SELECT 1") == "rows"
        assert backend.injected == {"error": 1}

    def test_stall_is_interruptible(self):
        class Inner:
            name = "inner"

            def execute(self, sql, params=()):
                return "rows"

            def interrupt(self):
                self.interrupted = True

        inner = Inner()
        plan = ChaosPlan().add_backend("s0", stall_rate=1.0, stall_s=30.0)
        backend = FaultInjectingBackend(inner, plan=plan, name="s0")
        caught: list[Exception] = []

        def run():
            try:
                backend.execute("SELECT 1")
            except StorageError as exc:
                caught.append(exc)

        worker = threading.Thread(target=run)
        worker.start()
        time.sleep(0.05)                  # let the stall begin
        backend.interrupt()               # executor-style cancellation
        worker.join(timeout=5.0)
        assert not worker.is_alive()
        assert caught and "interrupted" in str(caught[0])
        assert getattr(inner, "interrupted", False)  # forwarded

    def test_loads_stay_clean_under_chaos(self):
        class Inner:
            name = "inner"

            def executemany(self, sql, seq):
                return "loaded"

        backend = FaultInjectingBackend(Inner(), name="s0")
        backend.force("error")
        # chaos targets the query path; loads must not corrupt the
        # byte-identity oracle
        assert backend.executemany("INSERT", [()]) == "loaded"
