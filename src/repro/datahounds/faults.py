"""Deterministic fault injection for the transport layer.

The paper's sources live on remote FTP/HTTP mirrors — exactly the kind
of infrastructure that stalls, resets connections, truncates transfers
and occasionally serves a corrupted dump. Reproducing those failure
modes on demand is what makes the resilience layer
(:mod:`repro.datahounds.resilience`) testable: a
:class:`FaultInjectingRepository` wraps any repository and injects
faults according to a :class:`FaultPlan`, and because every decision
comes from per-source seeded RNGs (or explicit scripts), a given plan
replays the *same* fault sequence every run — chaos you can put in a
regression test.

Fault kinds:

* ``transient`` — the fetch raises :class:`TransportError` (connection
  reset / 5xx); succeeds when retried enough times,
* ``stall`` — the fetch sleeps ``stall_s`` before succeeding
  (injectable sleep, so tests pay nothing),
* ``truncate`` — the payload is cut short (a dropped connection
  mid-transfer); detectable only by checksum,
* ``corrupt`` — the payload is altered (a bad mirror); ditto.

Truncated/corrupted payloads are returned *successfully* — like a real
mirror would — so only integrity verification against the release
checksum (``ResilientRepository``) catches them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.datahounds.transport import FetchResult, _record_fetch_error
from repro.errors import TransportError
from repro.obs.metrics import resolve_metrics
from repro.resilience import FaultRates, FaultSchedule

#: every fault kind a plan can inject (``ok`` = no fault)
FAULT_KINDS = ("transient", "stall", "truncate", "corrupt")


@dataclass
class FaultSpec(FaultRates):
    """Per-source fault configuration.

    ``script`` is consumed first — an explicit outcome per fetch
    (``"fail-N-then-succeed"`` is a script of N ``"transient"``
    entries); once exhausted, outcomes are drawn from the rates using
    the source's seeded RNG. Rates are cumulative-checked in the order
    transient, truncate, corrupt, stall and must sum to <= 1.
    """

    RATE_ORDER = ("transient", "truncate", "corrupt", "stall")

    transient_rate: float = 0.0
    truncate_rate: float = 0.0
    corrupt_rate: float = 0.0
    stall_rate: float = 0.0
    #: injected latency for ``stall`` outcomes, seconds
    stall_s: float = 0.05
    script: tuple[str, ...] = ()


class FaultPlan(FaultSchedule):
    """Seedable, per-source fault schedule (a :class:`FaultSchedule`
    keyed by source name)."""

    def add_source(self, source: str = "*", **spec_kwargs) -> "FaultPlan":
        """Configure faults for one source (``"*"`` = any source
        without its own spec); returns self for chaining."""
        self._specs[source] = FaultSpec(**spec_kwargs)
        return self

    def fail_then_succeed(self, source: str, failures: int,
                          kind: str = "transient") -> "FaultPlan":
        """Script ``failures`` consecutive faults, then clean fetches."""
        self._specs[source] = FaultSpec(script=(kind,) * failures)
        return self


@dataclass
class FaultInjectingRepository:
    """A repository wrapper that injects :class:`FaultPlan` faults.

    Transparent on the read-only surface (``sources``, ``releases``,
    ``latest_release``, ``publish``, ``checksum`` all delegate); only
    ``fetch`` consults the plan. The advertised ``checksum`` always
    comes from the pristine inner repository, so corrupted payloads are
    detectable — exactly the mirror-plus-``.sha``-sidecar situation.
    """

    inner: object
    plan: FaultPlan
    #: injectable sleep for ``stall`` faults (tests pass a recorder)
    sleep: object = time.sleep
    #: ``None`` records into the process-wide registry, like the
    #: transports it wraps
    metrics: object = None
    events: object = None

    def __post_init__(self):
        self.metrics = resolve_metrics(self.metrics)

    def fetch(self, source: str, release: str | None = None) -> FetchResult:
        """Fetch through the fault plan."""
        outcome = self.plan.next_outcome(source)
        if outcome != "ok":
            self._note(source, outcome)
        if outcome == "transient":
            _record_fetch_error(self.metrics, source)
            raise TransportError(
                f"{source}: injected transient fetch failure")
        if outcome == "stall":
            spec = self.plan.spec_for(source)
            self.sleep(spec.stall_s if spec is not None else 0.0)
        result = self.inner.fetch(source, release)
        if outcome == "truncate":
            return FetchResult(source, result.release,
                               result.text[:max(1, len(result.text) // 2)])
        if outcome == "corrupt":
            flipped = "#" if not result.text.startswith("#") else "!"
            return FetchResult(source, result.release,
                               flipped + result.text[1:])
        return result

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
        """The pristine release checksum (faults corrupt payloads, not
        the advertised checksum)."""
        advertise = getattr(self.inner, "checksum", None)
        return advertise(source, release) if advertise else None

    def _note(self, source: str, outcome: str) -> None:
        self.metrics.inc("transport.faults_injected", source=source,
                         kind=outcome)
        if self.events is not None:
            self.events.emit("transport.fault_injected", severity="debug",
                             source=source, kind=outcome)
