"""Shared resilience primitives: retry policies, circuit breakers, clocks.

Grown out of the Data Hounds' transport hardening, these primitives now
guard *both* planes of the system: the harvest path (fetching releases
from flaky mirrors — :mod:`repro.datahounds.resilience`) and the query
path (scatter-gather subqueries against shard backends that stall, die,
or come back — :mod:`repro.federation.executor`). Both planes share the
same failure taxonomy:

* **transient failures** — :class:`RetryPolicy`: bounded attempts with
  exponential backoff and *deterministic* jitter (hashed from
  source + attempt, so test runs replay identical delays), under an
  optional overall deadline;
* **persistently down peers** — a per-peer :class:`CircuitBreaker`
  (closed → open after K consecutive failures → half-open probe after a
  cooldown), so a dead peer costs one short-circuited exception instead
  of a full timeout ladder every time. The gauge/event names and the
  label key are configurable so each plane publishes under its own
  namespace (``transport.breaker_state`` per *source* for harvests,
  ``federation.breaker_state`` per *backend* for queries).

:class:`ManualClock` is the injectable clock+sleep pair that makes the
whole retry/breaker/hedge state space testable in microseconds: code
under test takes ``clock=``/``sleep=`` parameters, tests pass the same
:class:`ManualClock` for both, and "waiting" becomes instantaneous and
fully deterministic.

:class:`FaultSchedule` is the seeded fault schedule both planes inject
from: :class:`~repro.datahounds.faults.FaultPlan` per fetched source,
:class:`~repro.federation.chaos.ChaosPlan` per shard backend.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass
from typing import ClassVar

from repro.obs.metrics import NULL_METRICS

#: breaker states, and their numeric codes on breaker-state gauges
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"

BREAKER_STATE_CODES = {CLOSED: 0, OPEN: 1, HALF_OPEN: 2}
BREAKER_STATE_NAMES = {code: name
                       for name, code in BREAKER_STATE_CODES.items()}


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with deterministic jitter.

    ``max_attempts`` counts the first try: ``max_attempts=1`` disables
    retrying. Delays grow ``base_delay_s * multiplier**(attempt-1)``
    capped at ``max_delay_s``, then jittered by up to ±``jitter``
    (fractional) using a hash of ``(source, attempt)`` — spread like
    random jitter, reproducible like none. ``deadline_s`` bounds the
    whole operation (attempts + sleeps): once past it, no further
    attempt is made. (A stalled in-flight call cannot be interrupted by
    the policy itself; the deadline is checked between attempts.)
    """

    max_attempts: int = 4
    base_delay_s: float = 0.05
    multiplier: float = 2.0
    max_delay_s: float = 5.0
    jitter: float = 0.1
    deadline_s: float | None = None

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")

    def delay_for(self, attempt: int, source: str = "") -> float:
        """Backoff delay after the ``attempt``-th failure (1-based)."""
        raw = min(self.base_delay_s * self.multiplier ** (attempt - 1),
                  self.max_delay_s)
        if self.jitter:
            digest = hashlib.sha256(
                f"{source}:{attempt}".encode("utf-8")).hexdigest()[:8]
            unit = int(digest, 16) / 0xFFFFFFFF          # [0, 1]
            raw *= 1.0 + self.jitter * (2.0 * unit - 1.0)
        return max(0.0, raw)


class CircuitBreaker:
    """Per-peer breaker: closed → open → half-open → closed.

    ``failure_threshold`` consecutive failures open the breaker; while
    open, :meth:`allow` returns False (callers short-circuit without
    touching the peer) until ``cooldown_s`` has elapsed, at which point
    the breaker half-opens and admits one probe. A successful probe
    closes it; a failed probe re-opens it for another cooldown.

    State transitions land on the ``gauge`` gauge (coded via
    :data:`BREAKER_STATE_CODES`, labelled ``{label}=<source>``) and as
    ``{event_prefix}_open`` / ``_half_open`` / ``_close`` events. The
    defaults keep the harvest plane's historical names; the federation
    plane constructs breakers with ``gauge="federation.breaker_state"``
    and ``label="backend"``.

    ``last_failure_at`` / ``last_failure_time`` record the most recent
    failure on the injected (monotonic) clock and on the wall clock
    respectively — the latter feeds human-facing health reports.
    """

    def __init__(self, source: str, failure_threshold: int = 5,
                 cooldown_s: float = 30.0, clock=time.monotonic,
                 metrics=NULL_METRICS, events=None,
                 gauge: str = "transport.breaker_state",
                 label: str = "source",
                 event_prefix: str = "transport.breaker"):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        self.source = source
        self.failure_threshold = failure_threshold
        self.cooldown_s = cooldown_s
        self.clock = clock
        self.metrics = NULL_METRICS if metrics is None else metrics
        self.events = events
        self.gauge = gauge
        self.label = label
        self.event_prefix = event_prefix
        self.state = CLOSED
        self.consecutive_failures = 0
        self.last_failure_at: float | None = None
        self.last_failure_time: float | None = None
        self._opened_at: float | None = None
        self._publish_state()

    def allow(self) -> bool:
        """May the caller attempt right now? (An open breaker past its
        cooldown half-opens and admits the probe.)"""
        if self.state != OPEN:
            return True
        if (self.clock() - self._opened_at) >= self.cooldown_s:
            self._transition(HALF_OPEN)
            return True
        return False

    def record_success(self) -> None:
        """An attempt succeeded: reset the failure streak; a half-open
        probe's success closes the breaker."""
        self.consecutive_failures = 0
        if self.state != CLOSED:
            self._transition(CLOSED)

    def record_failure(self) -> None:
        """An attempt failed: extend the streak; hitting the threshold
        — or failing the half-open probe — opens the breaker."""
        self.consecutive_failures += 1
        self.last_failure_at = self.clock()
        self.last_failure_time = time.time()
        if (self.state == HALF_OPEN
                or self.consecutive_failures >= self.failure_threshold):
            if self.state != OPEN:
                self._transition(OPEN)
            self._opened_at = self.clock()

    def status(self) -> dict:
        """Health-report view of this breaker."""
        report = {"state": self.state,
                  "consecutive_failures": self.consecutive_failures}
        if self.last_failure_time is not None:
            report["last_failure_time"] = round(self.last_failure_time, 3)
        return report

    # -- internals ----------------------------------------------------------

    def _transition(self, state: str) -> None:
        self.state = state
        if state == OPEN and self._opened_at is None:
            self._opened_at = self.clock()
        self._publish_state()
        if self.events is not None:
            severity = "warning" if state == OPEN else "info"
            self.events.emit(f"{self.event_prefix}_{state}",
                             severity=severity,
                             consecutive_failures=self.consecutive_failures,
                             **{self.label: self.source})

    def _publish_state(self) -> None:
        self.metrics.set_gauge(self.gauge, BREAKER_STATE_CODES[self.state],
                               **{self.label: self.source})


class ManualClock:
    """Deterministic clock + sleep pair for tests.

    The instance is callable (returns the current reading, so it can be
    passed anywhere a ``clock=`` parameter is expected) and exposes
    :meth:`sleep` (advances the reading instead of blocking, recording
    every requested duration in :attr:`sleeps`). :meth:`advance` moves
    time forward without going through a sleep — e.g. to age a breaker
    past its cooldown.
    """

    def __init__(self, start: float = 0.0):
        self.now = float(start)
        self.sleeps: list[float] = []

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.sleeps.append(seconds)
        self.now += max(0.0, seconds)

    def advance(self, seconds: float) -> None:
        self.now += seconds


class FaultRates:
    """Validation shared by the per-key fault specs (a dataclass mixin).

    A spec carries a ``script`` of explicit outcomes, consumed first,
    and one ``<kind>_rate`` field per kind in :attr:`RATE_ORDER`. Once
    the script is exhausted, outcomes are drawn by checking those rates
    cumulatively in that order. Rates must sum to <= 1, and a script
    may name only those kinds or ``"ok"``.
    """

    RATE_ORDER: ClassVar[tuple[str, ...]] = ()

    def __post_init__(self):
        total = sum(getattr(self, f"{kind}_rate")
                    for kind in self.RATE_ORDER)
        if total > 1.0 + 1e-9:
            raise ValueError(f"fault rates sum to {total}, must be <= 1")
        for kind in self.script:
            if kind not in self.RATE_ORDER and kind != "ok":
                raise ValueError(f"unknown scripted fault {kind!r}")


class FaultSchedule:
    """Seedable, per-key fault schedule of :class:`FaultRates` specs.

    One RNG per key, seeded from ``f"{seed}:{key}"``, keeps each key's
    fault sequence independent of how events interleave across keys:
    harvesting sources or scattering subqueries in a different order
    replays identical per-key faults. :meth:`reset` re-arms scripts and
    RNGs so the same plan object can drive a byte-identical second run.
    Subclasses name the keys and build the specs.
    """

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._specs: dict[str, FaultRates] = {}
        self._cursors: dict[str, int] = {}
        self._rngs: dict[str, random.Random] = {}
        #: injected fault counts: (key, kind) -> count
        self.injected: dict[tuple[str, str], int] = {}

    def spec_for(self, key: str):
        """The spec governing one key (wildcard ``"*"`` fallback)."""
        spec = self._specs.get(key)
        return spec if spec is not None else self._specs.get("*")

    def next_outcome(self, key: str) -> str:
        """The fault (or ``"ok"``) for this key's next event."""
        spec = self.spec_for(key)
        if spec is None:
            return "ok"
        cursor = self._cursors.get(key, 0)
        if cursor < len(spec.script):
            self._cursors[key] = cursor + 1
            outcome = spec.script[cursor]
        else:
            roll = self._rng(key).random()
            outcome = "ok"
            threshold = 0.0
            for kind in spec.RATE_ORDER:
                threshold += getattr(spec, f"{kind}_rate")
                if roll < threshold:
                    outcome = kind
                    break
        if outcome != "ok":
            counted = (key, outcome)
            self.injected[counted] = self.injected.get(counted, 0) + 1
        return outcome

    def reset(self) -> None:
        """Re-arm every script and RNG (identical replay)."""
        self._cursors.clear()
        self._rngs.clear()
        self.injected.clear()

    def injected_total(self) -> int:
        """Total faults injected since construction/reset."""
        return sum(self.injected.values())

    def _rng(self, key: str) -> random.Random:
        rng = self._rngs.get(key)
        if rng is None:
            rng = self._rngs[key] = random.Random(f"{self.seed}:{key}")
        return rng
