"""Chaos harness for the federated query path.

PR 4's :class:`~repro.datahounds.faults.FaultInjectingRepository` made
the *harvest* plane's failure modes reproducible; this module does the
same for the *query* plane, one layer lower: a
:class:`FaultInjectingBackend` wraps any relational
:class:`~repro.relational.backend.Backend` and injects faults per
**statement**, which is exactly where a real shard dies mid-query —
after the connection opened, inside the SELECT.

Fault kinds:

* ``error`` — the statement raises :class:`StorageError` (a crashed or
  restarting shard process),
* ``stall`` — the statement blackholes: it blocks (on an interruptible
  event, not a bare sleep) until it is cancelled through
  :meth:`FaultInjectingBackend.interrupt` — the executor's straggler
  cancellation — or the ``stall_s`` safety valve elapses; either way
  it raises :class:`StorageError`, never returning rows,
* ``slow`` — the statement sleeps ``slow_s`` first and then succeeds
  (a brown-out: slow enough to trip timeouts and hedges, not dead).

Every decision comes from per-backend seeded RNGs or explicit scripts
(:class:`ChaosPlan`, a :class:`repro.resilience.FaultSchedule` like the
harvest plane's FaultPlan), so a given plan replays
the same fault sequence every run — chaos you can put in a regression
test. On top of the plan, :meth:`FaultInjectingBackend.force` pins an
outcome at runtime (``force("error")`` is the E16 bench's mid-run
shard kill; :meth:`restore` revives it).

Wiring one into a live warehouse::

    backend = inject_faults(shard_warehouse, plan, name="s0")
    ...
    backend.force("error")      # kill the shard mid-run
    backend.restore()           # and bring it back
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from repro.errors import StorageError
from repro.resilience import FaultRates, FaultSchedule

#: every fault kind a plan can inject (``ok`` = no fault)
CHAOS_KINDS = ("error", "stall", "slow")


@dataclass
class ChaosSpec(FaultRates):
    """Per-backend fault configuration.

    ``script`` is consumed first — an explicit outcome per statement;
    once exhausted, outcomes are drawn from the rates using the
    backend's seeded RNG. Rates are cumulative-checked in the order
    error, stall, slow and must sum to <= 1.
    """

    RATE_ORDER = CHAOS_KINDS

    error_rate: float = 0.0
    stall_rate: float = 0.0
    slow_rate: float = 0.0
    #: safety valve for ``stall`` outcomes: how long the blackhole
    #: blocks before erroring on its own (interrupts cut it short)
    stall_s: float = 30.0
    #: injected latency for ``slow`` outcomes, seconds
    slow_s: float = 0.05
    script: tuple[str, ...] = ()


class ChaosPlan(FaultSchedule):
    """Seedable, per-backend fault schedule (a :class:`FaultSchedule`
    keyed by backend name, so scatter order never changes what a
    backend injects)."""

    def add_backend(self, backend: str = "*", **spec_kwargs) -> "ChaosPlan":
        """Configure faults for one backend (``"*"`` = any backend
        without its own spec); returns self for chaining."""
        self._specs[backend] = ChaosSpec(**spec_kwargs)
        return self

    def fail_then_succeed(self, backend: str, failures: int,
                          kind: str = "error") -> "ChaosPlan":
        """Script ``failures`` consecutive faults, then clean
        statements."""
        self._specs[backend] = ChaosSpec(script=(kind,) * failures)
        return self


class FaultInjectingBackend:
    """A :class:`~repro.relational.backend.Backend` wrapper that
    injects :class:`ChaosPlan` faults per executed statement.

    ``interrupt()`` mirrors the SQLite contract the executor's
    straggler cancellation relies on: it breaks into an in-flight
    stalled statement (which then raises :class:`StorageError`) and is
    forwarded to the wrapped backend so a real running statement
    aborts too. Everything else delegates verbatim — the wrapper can
    sit above or below :class:`~repro.obs.backend.InstrumentedBackend`.
    """

    def __init__(self, inner, plan: ChaosPlan | None = None,
                 name: str | None = None, sleep=time.sleep):
        self.inner = inner
        self.plan = plan
        self.backend = name if name is not None \
            else getattr(inner, "name", "backend")
        self.sleep = sleep
        self._forced: str | None = None
        self._interrupted = threading.Event()
        #: injected fault counts by kind (plan- and force-driven)
        self.injected: dict[str, int] = {}

    @property
    def name(self) -> str:
        """The wrapped engine's identifier."""
        return self.inner.name

    # -- runtime fault control ----------------------------------------------

    def force(self, kind: str) -> None:
        """Pin every statement to one outcome until :meth:`restore`
        (``force("error")`` = kill the shard; ``force("stall")`` =
        blackhole it)."""
        if kind not in CHAOS_KINDS:
            raise ValueError(f"unknown forced fault {kind!r}")
        self._forced = kind

    def restore(self) -> None:
        """Lift a forced outcome; the plan (if any) resumes."""
        self._forced = None

    # -- Backend protocol ----------------------------------------------------

    def execute(self, sql, params=()):
        """Forward one statement through the fault schedule."""
        self._interrupted.clear()
        outcome = self._outcome()
        if outcome == "error":
            raise StorageError(
                f"chaos: backend {self.backend!r} injected error")
        if outcome == "stall":
            spec = self.plan.spec_for(self.backend) if self.plan else None
            budget = spec.stall_s if spec is not None else 30.0
            if self._interrupted.wait(timeout=budget):
                raise StorageError(
                    f"chaos: backend {self.backend!r} stalled "
                    f"statement interrupted")
            raise StorageError(
                f"chaos: backend {self.backend!r} stalled past its "
                f"{budget}s safety valve")
        if outcome == "slow":
            spec = self.plan.spec_for(self.backend) if self.plan else None
            self.sleep(spec.slow_s if spec is not None else 0.05)
        return self.inner.execute(sql, params)

    def executemany(self, sql, params_seq):
        """Loads stay clean: chaos targets the query path, and a
        corrupted load would break the byte-identity oracle the chaos
        experiments assert against."""
        return self.inner.executemany(sql, params_seq)

    def commit(self) -> None:
        """Delegate."""
        self.inner.commit()

    def interrupt(self) -> None:
        """Cancel an in-flight stalled statement, then forward to the
        wrapped backend (lock-free, like the SQLite original)."""
        self._interrupted.set()
        forward = getattr(self.inner, "interrupt", None)
        if forward is not None:
            forward()

    def close(self) -> None:
        """Delegate."""
        self.inner.close()

    def __getattr__(self, name: str):
        """Backend-specific extras pass straight through."""
        return getattr(self.inner, name)

    # -- internals -----------------------------------------------------------

    def _outcome(self) -> str:
        outcome = self._forced
        if outcome is None and self.plan is not None:
            outcome = self.plan.next_outcome(self.backend)
        if outcome is None:
            outcome = "ok"
        if outcome != "ok":
            self.injected[outcome] = self.injected.get(outcome, 0) + 1
        return outcome


def inject_faults(warehouse, plan: ChaosPlan | None = None,
                  name: str | None = None,
                  sleep=time.sleep) -> FaultInjectingBackend:
    """Swap a live warehouse's backend for a fault-injecting wrapper
    (loader included, so generations stay consistent); returns the
    wrapper for runtime ``force``/``restore`` control."""
    wrapper = FaultInjectingBackend(
        warehouse.backend, plan=plan,
        name=name or getattr(warehouse, "shard_name", None), sleep=sleep)
    warehouse.backend = wrapper
    warehouse.loader.backend = wrapper
    return wrapper
