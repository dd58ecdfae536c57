"""Unit tests for the resilient transport wrapper: retry policy,
circuit breaker state machine, integrity verification."""

import pytest

from repro.datahounds import (
    FaultInjectingRepository,
    FaultPlan,
    InMemoryRepository,
    ResilientRepository,
)
from repro.errors import (
    CircuitOpenError,
    PayloadIntegrityError,
    TransportError,
)
from repro.obs import EventLog, MetricsRegistry
from repro.resilience import BREAKER_STATE_CODES, CircuitBreaker, RetryPolicy

TEXT = "ID   1.1.1.1\nDE   alcohol dehydrogenase.\n//\n"


class FakeClock:
    """A manually advanced monotonic clock."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def make_repo():
    inner = InMemoryRepository()
    inner.publish("hlx_enzyme", "r1", TEXT)
    return inner


def resilient(inner, naps=None, clock=None, **kwargs):
    kwargs.setdefault("policy", RetryPolicy(max_attempts=4,
                                            base_delay_s=0.01))
    return ResilientRepository(
        inner,
        sleep=(naps.append if naps is not None else (lambda s: None)),
        clock=clock if clock is not None else FakeClock(),
        **kwargs)


class TestRetryPolicy:
    def test_max_attempts_validated(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)

    def test_multiplier_validated(self):
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(base_delay_s=1.0, multiplier=2.0,
                             max_delay_s=3.0, jitter=0.0)
        assert policy.delay_for(1) == 1.0
        assert policy.delay_for(2) == 2.0
        assert policy.delay_for(3) == 3.0   # capped
        assert policy.delay_for(9) == 3.0

    def test_jitter_is_deterministic_per_source_and_attempt(self):
        policy = RetryPolicy(base_delay_s=1.0, jitter=0.2)
        assert policy.delay_for(1, "a") == policy.delay_for(1, "a")
        assert policy.delay_for(1, "a") != policy.delay_for(1, "b")
        assert abs(policy.delay_for(1, "a") - 1.0) <= 0.2 + 1e-9


class TestCircuitBreaker:
    def breaker(self, clock, metrics=None, events=None):
        return CircuitBreaker("s", failure_threshold=3, cooldown_s=10.0,
                              clock=clock, metrics=metrics, events=events)

    def test_opens_after_threshold_failures(self):
        breaker = self.breaker(FakeClock())
        for __ in range(2):
            breaker.record_failure()
        assert breaker.state == "closed" and breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open" and not breaker.allow()

    def test_success_resets_the_streak(self):
        breaker = self.breaker(FakeClock())
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_half_opens_after_cooldown_and_closes_on_good_probe(self):
        clock = FakeClock()
        breaker = self.breaker(clock)
        for __ in range(3):
            breaker.record_failure()
        assert not breaker.allow()
        clock.advance(10.0)
        assert breaker.allow()
        assert breaker.state == "half_open"
        breaker.record_success()
        assert breaker.state == "closed"

    def test_failed_probe_reopens_for_another_cooldown(self):
        clock = FakeClock()
        breaker = self.breaker(clock)
        for __ in range(3):
            breaker.record_failure()
        clock.advance(10.0)
        assert breaker.allow()            # half-open probe admitted
        breaker.record_failure()
        assert breaker.state == "open"
        clock.advance(9.0)
        assert not breaker.allow()        # cooldown restarted
        clock.advance(1.0)
        assert breaker.allow()

    def test_transitions_land_on_gauge_and_events(self):
        metrics = MetricsRegistry()
        events = EventLog()
        clock = FakeClock()
        breaker = self.breaker(clock, metrics=metrics, events=events)
        gauge = lambda: metrics.get_gauge_value("transport.breaker_state",
                                                source="s")
        assert gauge() == BREAKER_STATE_CODES["closed"]
        for __ in range(3):
            breaker.record_failure()
        assert gauge() == BREAKER_STATE_CODES["open"]
        clock.advance(10.0)
        breaker.allow()
        assert gauge() == BREAKER_STATE_CODES["half_open"]
        breaker.record_success()
        assert gauge() == BREAKER_STATE_CODES["closed"]
        names = [e.name for e in events.events()]
        assert "transport.breaker_open" in names
        assert "transport.breaker_half_open" in names
        assert "transport.breaker_closed" in names
        opened = [e for e in events.events()
                  if e.name == "transport.breaker_open"]
        assert opened[0].severity == "warning"


class TestResilientFetch:
    def test_retries_until_success(self):
        plan = FaultPlan().fail_then_succeed("hlx_enzyme", 2)
        naps = []
        wrapper = resilient(FaultInjectingRepository(make_repo(), plan),
                            naps=naps)
        result = wrapper.fetch("hlx_enzyme")
        assert result.text == TEXT
        assert len(naps) == 2

    def test_backoff_delays_follow_the_policy(self):
        plan = FaultPlan().fail_then_succeed("hlx_enzyme", 2)
        naps = []
        policy = RetryPolicy(max_attempts=4, base_delay_s=0.01,
                             multiplier=2.0, jitter=0.0)
        wrapper = resilient(FaultInjectingRepository(make_repo(), plan),
                            naps=naps, policy=policy)
        wrapper.fetch("hlx_enzyme")
        assert naps == [pytest.approx(0.01), pytest.approx(0.02)]

    def test_gives_up_after_max_attempts(self):
        plan = FaultPlan().fail_then_succeed("hlx_enzyme", 99)
        metrics = MetricsRegistry()
        wrapper = resilient(FaultInjectingRepository(make_repo(), plan),
                            metrics=metrics, breaker_threshold=50)
        with pytest.raises(TransportError, match="after 4 attempt"):
            wrapper.fetch("hlx_enzyme")
        assert metrics.get_counter("transport.retries",
                                   source="hlx_enzyme") == 3
        assert metrics.get_counter("transport.fetch_errors",
                                   source="hlx_enzyme") >= 1

    def test_deadline_cuts_the_retry_ladder_short(self):
        plan = FaultPlan().fail_then_succeed("hlx_enzyme", 99)
        clock = FakeClock()
        flaky = FaultInjectingRepository(make_repo(), plan)
        wrapper = ResilientRepository(
            flaky, policy=RetryPolicy(max_attempts=50, base_delay_s=1.0,
                                      jitter=0.0, deadline_s=2.5),
            sleep=lambda s: clock.advance(s), clock=clock,
            breaker_threshold=100)
        with pytest.raises(TransportError, match="attempt"):
            wrapper.fetch("hlx_enzyme")
        assert clock.now <= 4.0   # nowhere near 50 attempts' worth

    def test_breaker_opens_and_short_circuits(self):
        plan = FaultPlan().add_source("hlx_enzyme",
                                      script=("transient",) * 20)
        clock = FakeClock()
        wrapper = resilient(FaultInjectingRepository(make_repo(), plan),
                            clock=clock, breaker_threshold=3,
                            breaker_cooldown_s=30.0)
        with pytest.raises(TransportError):
            wrapper.fetch("hlx_enzyme")
        assert wrapper.breaker("hlx_enzyme").state == "open"
        # while open, the source is never touched: the script would
        # inject more faults, but fetch fails fast instead
        before = plan.injected_total()
        with pytest.raises(CircuitOpenError):
            wrapper.fetch("hlx_enzyme")
        assert plan.injected_total() == before

    def test_breaker_recovers_after_cooldown(self):
        plan = FaultPlan().fail_then_succeed("hlx_enzyme", 3)
        clock = FakeClock()
        wrapper = resilient(FaultInjectingRepository(make_repo(), plan),
                            clock=clock, breaker_threshold=3,
                            breaker_cooldown_s=30.0)
        with pytest.raises(TransportError):
            wrapper.fetch("hlx_enzyme")
        clock.advance(30.0)
        assert wrapper.fetch("hlx_enzyme").text == TEXT
        assert wrapper.breaker("hlx_enzyme").state == "closed"

    def test_retry_events_emitted(self):
        plan = FaultPlan().fail_then_succeed("hlx_enzyme", 1)
        events = EventLog()
        wrapper = resilient(FaultInjectingRepository(make_repo(), plan),
                            events=events)
        wrapper.fetch("hlx_enzyme")
        names = [e.name for e in events.events()]
        assert "transport.retry" in names
        assert "transport.recovered" in names

    def test_breaker_states_view(self):
        wrapper = resilient(make_repo())
        wrapper.fetch("hlx_enzyme")
        states = wrapper.breaker_states()
        assert states == {"hlx_enzyme": {"state": "closed",
                                         "consecutive_failures": 0}}


class TestIntegrityVerification:
    def test_truncated_payload_detected_and_retried(self):
        plan = FaultPlan().fail_then_succeed("hlx_enzyme", 1,
                                             kind="truncate")
        metrics = MetricsRegistry()
        wrapper = resilient(FaultInjectingRepository(make_repo(), plan),
                            metrics=metrics)
        assert wrapper.fetch("hlx_enzyme").text == TEXT
        assert metrics.get_counter("transport.integrity_failures",
                                   source="hlx_enzyme") == 1

    def test_corrupt_payload_detected(self):
        plan = FaultPlan().add_source("hlx_enzyme",
                                      script=("corrupt",) * 10)
        wrapper = resilient(FaultInjectingRepository(make_repo(), plan),
                            breaker_threshold=50)
        with pytest.raises(TransportError) as excinfo:
            wrapper.fetch("hlx_enzyme")
        assert isinstance(excinfo.value.__cause__, PayloadIntegrityError)

    def test_verification_can_be_disabled(self):
        plan = FaultPlan().fail_then_succeed("hlx_enzyme", 1,
                                             kind="corrupt")
        wrapper = resilient(FaultInjectingRepository(make_repo(), plan),
                            verify_integrity=False)
        assert wrapper.fetch("hlx_enzyme").text != TEXT   # garbage passes

    def test_inner_without_checksum_is_tolerated(self):
        class Bare:
            def fetch(self, source, release=None):
                return make_repo().fetch("hlx_enzyme", "r1")
        wrapper = resilient(Bare())
        assert wrapper.fetch("hlx_enzyme").text == TEXT
