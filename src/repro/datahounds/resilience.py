"""Fault-tolerant transport: retries, integrity checks, circuit breakers.

The Data Hounds' remote mirrors fail in three distinct ways, and each
gets its own counter-measure here:

* **transient failures** (connection resets, temporary 5xx) —
  :class:`RetryPolicy`: bounded attempts with exponential backoff and
  *deterministic* jitter (hashed from source + attempt, so test runs
  replay identical delays), under an optional per-fetch deadline;
* **corrupted/truncated transfers** — payload integrity verification:
  the fetched text's checksum is compared against the checksum the
  repository *advertises* for the release (an FTP mirror's ``.sha``
  sidecar); a mismatch raises :class:`PayloadIntegrityError`, which is
  retryable like any other transport fault;
* **persistently down sources** — a per-source :class:`CircuitBreaker`
  (closed → open after K consecutive failures → half-open probe after
  a cooldown), so a dead mirror costs one short-circuited exception
  per harvest instead of a full retry ladder every time.

:class:`ResilientRepository` composes all three around any repository
(including a :class:`~repro.datahounds.faults.FaultInjectingRepository`
— that pairing is the chaos test-bed). Everything observable flows
through the always-on planes: ``transport.retries`` /
``transport.fetch_errors`` counters, ``transport.breaker_state``
gauges, and ``transport.retry`` / ``transport.breaker_*`` events.

Sleep and clock are injectable, so the full retry/breaker state space
is testable in microseconds.
"""

from __future__ import annotations

import time

from repro.datahounds.transport import FetchResult, _record_fetch_error
from repro.errors import CircuitOpenError, PayloadIntegrityError, TransportError
from repro.resilience import OPEN, CircuitBreaker, RetryPolicy


class ResilientRepository:
    """Retry + verify + circuit-break around any repository.

    Construction wires the observability planes once; per-source
    breakers are created lazily. The wrapper is transparent on the
    read-only surface, so a :class:`~repro.datahounds.hound.DataHound`
    (or anything speaking the Repository protocol) can use it as a
    drop-in replacement for the raw transport.
    """

    def __init__(self, inner, policy: RetryPolicy | None = None,
                 breaker_threshold: int = 5,
                 breaker_cooldown_s: float = 30.0,
                 verify_integrity: bool = True,
                 sleep=time.sleep, clock=time.monotonic,
                 metrics=None, events=None):
        self.inner = inner
        self.policy = policy if policy is not None else RetryPolicy()
        self.breaker_threshold = breaker_threshold
        self.breaker_cooldown_s = breaker_cooldown_s
        self.verify_integrity = verify_integrity
        self.sleep = sleep
        self.clock = clock
        self.metrics = metrics
        self.events = events
        self._breakers: dict[str, CircuitBreaker] = {}

    # -- the resilient fetch ------------------------------------------------

    def fetch(self, source: str, release: str | None = None) -> FetchResult:
        """Fetch with retries, integrity verification and breaker
        protection; raises the last :class:`TransportError` when the
        attempt budget (or deadline, or breaker) runs out."""
        breaker = self.breaker(source)
        if not breaker.allow():
            _record_fetch_error(self.metrics, source)
            raise CircuitOpenError(
                f"{source}: circuit breaker open "
                f"({breaker.consecutive_failures} consecutive failures; "
                f"retry after {self.breaker_cooldown_s}s cooldown)")
        policy = self.policy
        deadline = (self.clock() + policy.deadline_s
                    if policy.deadline_s is not None else None)
        attempt = 0
        while True:
            attempt += 1
            try:
                result = self.inner.fetch(source, release)
                self._verify(source, result)
            except TransportError as exc:
                breaker.record_failure()
                if (attempt >= policy.max_attempts
                        or breaker.state == OPEN
                        or (deadline is not None
                            and self.clock() >= deadline)):
                    _record_fetch_error(self.metrics, source)
                    raise TransportError(
                        f"{source}: fetch failed after {attempt} "
                        f"attempt(s): {exc}") from exc
                delay = policy.delay_for(attempt, source)
                if self.metrics is not None:
                    self.metrics.inc("transport.retries", source=source)
                if self.events is not None:
                    self.events.emit(
                        "transport.retry", source=source, attempt=attempt,
                        delay_ms=round(delay * 1000.0, 3), error=str(exc))
                self.sleep(delay)
                continue
            breaker.record_success()
            if attempt > 1 and self.events is not None:
                self.events.emit("transport.recovered", source=source,
                                 attempts=attempt)
            return result

    # -- breaker access -----------------------------------------------------

    def breaker(self, source: str) -> CircuitBreaker:
        """The (lazily created) breaker guarding one source."""
        breaker = self._breakers.get(source)
        if breaker is None:
            breaker = self._breakers[source] = CircuitBreaker(
                source, failure_threshold=self.breaker_threshold,
                cooldown_s=self.breaker_cooldown_s, clock=self.clock,
                metrics=self.metrics, events=self.events)
        return breaker

    def breaker_states(self) -> dict[str, dict]:
        """Per-source breaker status (the health report's view)."""
        return {source: {"state": breaker.state,
                         "consecutive_failures":
                             breaker.consecutive_failures}
                for source, breaker in sorted(self._breakers.items())}

    # -- transparent delegation --------------------------------------------

    def sources(self) -> list[str]:
        """Delegated to the inner repository."""
        return self.inner.sources()

    def releases(self, source: str) -> list[str]:
        """Delegated to the inner repository."""
        return self.inner.releases(source)

    def latest_release(self, source: str) -> str:
        """Delegated to the inner repository."""
        return self.inner.latest_release(source)

    def publish(self, source: str, release: str, text: str):
        """Delegated to the inner repository."""
        return self.inner.publish(source, release, text)

    def checksum(self, source: str, release: str) -> str | None:
        """Delegated to the inner repository (None when it cannot
        advertise checksums)."""
        advertise = getattr(self.inner, "checksum", None)
        return advertise(source, release) if advertise else None

    # -- internals ----------------------------------------------------------

    def _verify(self, source: str, result: FetchResult) -> None:
        if not self.verify_integrity:
            return
        advertise = getattr(self.inner, "checksum", None)
        if advertise is None:
            return
        expected = advertise(source, result.release)
        if expected is None:
            return
        # FetchResult recomputes its checksum from the payload it
        # actually carries, so comparing it against the advertised one
        # catches truncation and corruption alike
        actual = result.checksum
        if actual != expected:
            _record_fetch_error(self.metrics, source)
            if self.metrics is not None:
                self.metrics.inc("transport.integrity_failures",
                                 source=source)
            raise PayloadIntegrityError(
                f"{source}/{result.release}: payload checksum {actual} "
                f"does not match advertised {expected} "
                f"(truncated or corrupted transfer)")
