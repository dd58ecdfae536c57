"""Change triggers to subscribed applications.

"Once the changes have been committed to the local warehouse, the Data
Hounds sends out triggers to related applications, indicating changes to
the warehouse" (paper §2.2). We model a trigger as a callback invoked
with a :class:`ChangeEvent`; subscriptions can be scoped to one source
or to all sources.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

from repro.obs.metrics import NULL_METRICS


@dataclass(frozen=True)
class ChangeEvent:
    """What changed in one warehouse commit."""

    source: str
    release: str
    added: tuple[str, ...] = ()      # entry keys newly loaded
    updated: tuple[str, ...] = ()    # entry keys whose content changed
    removed: tuple[str, ...] = ()    # entry keys no longer in the source
    #: trace id of the harvest that committed these changes (empty when
    #: the hound ran untraced) — downstream deliveries open spans under
    #: it so one trace covers fetch → store → subscriber push
    trace_id: str = ""

    @property
    def total_changes(self) -> int:
        """Total entries added + updated + removed."""
        return len(self.added) + len(self.updated) + len(self.removed)

    @property
    def touched(self) -> frozenset[str]:
        """Every entry key this commit touched (added|updated|removed)."""
        return frozenset(self.added) | frozenset(self.updated) \
            | frozenset(self.removed)

    def __str__(self) -> str:
        return (f"{self.source}@{self.release}: +{len(self.added)} "
                f"~{len(self.updated)} -{len(self.removed)}")


TriggerCallback = Callable[[ChangeEvent], None]

_ALL_SOURCES = "*"


@dataclass
class TriggerHub:
    """Subscription registry + dispatch.

    Instance counters (``events_fired`` / ``deliveries`` /
    ``failed_deliveries``) always track dispatch; with a live
    :class:`repro.obs.MetricsRegistry`, fires also land in the
    always-on ``triggers.*`` metrics (event counts per source,
    deliveries, per-callback delivery latency, failures).

    Callbacks are isolated: one raising subscriber is recorded (a
    ``triggers.delivery_failed`` metric + event) and dispatch continues
    to the remaining subscribers — a broken application must never
    starve its neighbours of change notifications. ``deliveries``
    counts only callbacks that returned, so the counter stays truthful
    when one raises.
    """

    _subscribers: dict[str, list[TriggerCallback]] = field(default_factory=dict)
    metrics: object = NULL_METRICS
    #: optional :class:`repro.obs.EventLog` — failed deliveries land
    #: here with the callback's error, severity ``error``
    events: object = None
    #: change events dispatched (zero-change events excluded)
    events_fired: int = 0
    #: successful callback invocations across all fires
    deliveries: int = 0
    #: callbacks that raised (isolated, dispatch continued)
    failed_deliveries: int = 0

    def subscribe(self, callback: TriggerCallback,
                  source: str = _ALL_SOURCES) -> None:
        """Register a callback for one source (or ``"*"`` for all)."""
        self._subscribers.setdefault(source, []).append(callback)

    def unsubscribe(self, callback: TriggerCallback,
                    source: str = _ALL_SOURCES) -> None:
        """Remove a subscription (no-op if absent)."""
        callbacks = self._subscribers.get(source, [])
        if callback in callbacks:
            callbacks.remove(callback)

    def fire(self, event: ChangeEvent) -> int:
        """Dispatch an event; returns the number of callbacks invoked.

        Events with no changes are not dispatched (a refresh that found
        the warehouse already current is not a change).
        """
        if event.total_changes == 0:
            return 0
        callbacks = (self._subscribers.get(event.source, [])
                     + self._subscribers.get(_ALL_SOURCES, []))
        self.events_fired += 1
        self.metrics.inc("triggers.events", source=event.source)
        for callback in list(callbacks):
            start = perf_counter()
            try:
                callback(event)
            except Exception as exc:   # noqa: BLE001 - isolation is the point
                self.failed_deliveries += 1
                self.metrics.inc("triggers.delivery_failed",
                                 source=event.source)
                if self.events is not None:
                    self.events.emit("triggers.delivery_failed",
                                     severity="error", source=event.source,
                                     release=event.release,
                                     error_type=type(exc).__name__,
                                     error=str(exc))
                continue
            self.deliveries += 1
            self.metrics.inc("triggers.deliveries")
            self.metrics.observe("triggers.delivery_seconds",
                                 perf_counter() - start)
        return len(callbacks)
