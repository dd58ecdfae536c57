"""The subscription registry: dedupe, persistence, event routing.

One :class:`SubscriptionManager` per warehouse. It subscribes a single
wildcard callback to the warehouse's trigger hub and, per
:class:`~repro.datahounds.triggers.ChangeEvent`:

1. finds every standing query watching the event's source,
2. refreshes each **once** (identical query texts share one
   :class:`~repro.subscriptions.ivm.StandingEvaluation` — a thousand
   subscribers to the same query cost one incremental evaluation),
3. hands the delta to the :class:`~repro.subscriptions.bus.DeliveryBus`
   which fans it out to that query's subscribers under their
   backpressure policies.

Subscriptions are durable: each is persisted to a
``standing_subscriptions`` table in the warehouse (outside the generic
document schema, like the hound's release snapshots), and a manager
built over a reopened warehouse restores them — subscribers reattach
to their channel by id and resume via ``Last-Event-Id``.

Subscribers come in two shapes: an in-process ``callback`` (invoked on
a bus worker thread with the :class:`KeyedDelta`), or — default — a
:class:`SubscriberChannel`, a bounded ring of numbered delta payloads
that the HTTP layer long-polls or streams (SSE).
"""

from __future__ import annotations

import json
import secrets
import threading
import time
from dataclasses import dataclass, field

from repro.datahounds.triggers import ChangeEvent
from repro.errors import ReproError, StorageError
from repro.obs.trace import NULL_TRACER, TraceContext
from repro.subscriptions.bus import POLICIES, DeliveryBus
from repro.subscriptions.delta import KeyedDelta
from repro.subscriptions.ivm import DEFAULT_MAX_DELTA_KEYS, StandingEvaluation

#: persisted subscriptions (probe-then-create like ``hound_snapshots``:
#: minidb has no IF NOT EXISTS, and the table must survive per-document
#: delete sweeps, so it stays outside TABLE_NAMES)
_SUBSCRIPTIONS_DDL = ("CREATE TABLE standing_subscriptions ("
                      "sub_id TEXT NOT NULL, "
                      "query_text TEXT NOT NULL, "
                      "policy TEXT NOT NULL, "
                      "mode TEXT NOT NULL, "
                      "created_at REAL NOT NULL)")


class SubscriberChannel:
    """A bounded ring of numbered deltas for one subscriber.

    The bus pushes payloads in; HTTP consumers pull with
    :meth:`poll` (long-poll: blocks until an event past ``after``
    arrives or the timeout lapses). Event ids are per-channel,
    monotonically increasing from 1 — the SSE ``id:`` field and the
    ``Last-Event-Id`` resume cursor. When the ring overflows, the
    oldest events are evicted and ``lost`` counts them: a consumer
    whose cursor fell off the ring learns it missed data instead of
    silently skipping it.
    """

    def __init__(self, capacity: int = 256):
        self.capacity = max(1, capacity)
        self._cond = threading.Condition()
        self._events: list[tuple[int, dict]] = []
        self._next_id = 1
        self.lost = 0

    def push(self, delta: KeyedDelta) -> int:
        """Append one delta; returns its event id."""
        payload = delta.to_payload()
        with self._cond:
            event_id = self._next_id
            self._next_id += 1
            self._events.append((event_id, payload))
            overflow = len(self._events) - self.capacity
            if overflow > 0:
                del self._events[:overflow]
                self.lost += overflow
            self._cond.notify_all()
            return event_id

    def poll(self, after: int = 0, timeout: float = 0.0,
             limit: int = 100) -> tuple[list[tuple[int, dict]], int]:
        """Events with id > ``after`` (at most ``limit``), blocking up
        to ``timeout`` seconds when none are ready. Returns
        ``(events, last_id)`` where ``last_id`` is the channel's
        newest id (the caller's next cursor even when it reads zero
        events)."""
        deadline = time.perf_counter() + max(0.0, timeout)
        with self._cond:
            while True:
                ready = [(event_id, payload)
                         for event_id, payload in self._events
                         if event_id > after][:max(1, limit)]
                if ready:
                    return ready, ready[-1][0]
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    return [], self._next_id - 1
                self._cond.wait(remaining)

    @property
    def last_id(self) -> int:
        """Newest assigned event id (0 = nothing delivered yet)."""
        with self._cond:
            return self._next_id - 1


@dataclass
class Subscription:
    """One subscriber's registration."""

    id: str
    query_text: str
    policy: str
    mode: str                       # "channel" | "callback"
    created_at: float
    channel: SubscriberChannel | None = None
    #: durable registrations survive warehouse restarts
    persisted: bool = False
    meta: dict = field(default_factory=dict)

    def as_record(self) -> dict:
        """JSON-able description (the service's list/create bodies)."""
        record = {
            "id": self.id,
            "query": self.query_text,
            "policy": self.policy,
            "mode": self.mode,
            "created_at": self.created_at,
            "persisted": self.persisted,
            "sources": self.meta.get("sources", []),
        }
        if self.channel is not None:
            record["last_event_id"] = self.channel.last_id
            record["lost_events"] = self.channel.lost
        return record


class SubscriptionManager:
    """Registry + router for standing-query subscriptions."""

    def __init__(self, warehouse, bus: DeliveryBus | None = None,
                 workers: int = 2, queue_max: int = 64,
                 channel_capacity: int = 256,
                 incremental_max_keys: int = DEFAULT_MAX_DELTA_KEYS,
                 incremental: bool = True,
                 persist: bool = True, restore: bool = True):
        self.warehouse = warehouse
        self._metrics = warehouse.metrics
        self._events = getattr(warehouse, "events", None)
        self.channel_capacity = channel_capacity
        self.incremental_max_keys = incremental_max_keys
        self.incremental = incremental
        self.persist = persist
        self.bus = bus if bus is not None else DeliveryBus(
            workers=workers, queue_max=queue_max,
            metrics=self._metrics, events=self._events,
            tracer_provider=lambda: warehouse.tracer)
        self._lock = threading.RLock()
        self._evaluations: dict[str, StandingEvaluation] = {}
        self._eval_locks: dict[str, threading.Lock] = {}
        self._subscribers: dict[str, Subscription] = {}
        self._by_query: dict[str, list[str]] = {}
        if self.persist:
            self._ensure_table()
        warehouse.triggers.subscribe(self._on_event, "*")
        if self.persist and restore:
            self._restore()

    # -- registration -------------------------------------------------------

    def subscribe(self, query_text: str, callback=None, *,
                  policy: str = "block", subscription_id: str | None = None,
                  persist: bool | None = None,
                  queue_max: int | None = None) -> Subscription:
        """Register a standing query; returns the subscription.

        With ``callback`` the delta is pushed in-process (bus worker
        thread, :class:`KeyedDelta` argument); without one the
        subscription gets a :class:`SubscriberChannel` for pull/stream
        consumers. The query is compiled once per unique text and
        primed with a full evaluation, so the first delivered delta is
        relative to the warehouse as of subscribe time.
        """
        if policy not in POLICIES:
            raise ReproError(f"unknown backpressure policy {policy!r} "
                             f"(expected one of {', '.join(POLICIES)})")
        durable = self.persist if persist is None else persist
        with self._lock:
            sub_id = subscription_id or secrets.token_hex(6)
            if sub_id in self._subscribers:
                raise ReproError(f"subscription id {sub_id!r} already "
                                 f"registered")
            evaluation = self._evaluations.get(query_text)
            if evaluation is None:
                evaluation = StandingEvaluation(
                    self.warehouse, query_text,
                    incremental_max_keys=self.incremental_max_keys,
                    incremental=self.incremental)
                evaluation.refresh_full()    # prime the snapshot
                self._evaluations[query_text] = evaluation
                self._eval_locks[query_text] = threading.Lock()
            channel = None
            if callback is None:
                channel = SubscriberChannel(self.channel_capacity)
                target = channel.push
            else:
                target = callback
            self.bus.register(sub_id, target, policy=policy,
                              queue_max=queue_max)
            subscription = Subscription(
                id=sub_id, query_text=query_text, policy=policy,
                mode="callback" if callback is not None else "channel",
                created_at=time.time(), channel=channel,
                persisted=durable and self.persist,
                meta={"sources": list(evaluation.sources)})
            self._subscribers[sub_id] = subscription
            self._by_query.setdefault(query_text, []).append(sub_id)
            if subscription.persisted:
                self._persist(subscription)
            self._set_active()
            return subscription

    def unsubscribe(self, subscription_id: str) -> bool:
        """Remove a subscription (and its persisted row); True when it
        existed."""
        with self._lock:
            subscription = self._subscribers.pop(subscription_id, None)
            if subscription is None:
                return False
            self.bus.unregister(subscription_id)
            remaining = self._by_query.get(subscription.query_text, [])
            if subscription_id in remaining:
                remaining.remove(subscription_id)
            if not remaining:
                self._by_query.pop(subscription.query_text, None)
                self._evaluations.pop(subscription.query_text, None)
                self._eval_locks.pop(subscription.query_text, None)
            if subscription.persisted:
                with self.warehouse.loader.write_lock:
                    self.warehouse.backend.execute(
                        "DELETE FROM standing_subscriptions "
                        "WHERE sub_id = ?", (subscription_id,))
                    self.warehouse.backend.commit()
            self._set_active()
            return True

    def get(self, subscription_id: str) -> Subscription | None:
        """Look one subscription up by id."""
        with self._lock:
            return self._subscribers.get(subscription_id)

    def subscriptions(self) -> list[Subscription]:
        """Every registration, oldest first."""
        with self._lock:
            return sorted(self._subscribers.values(),
                          key=lambda sub: (sub.created_at, sub.id))

    def evaluation_for(self, query_text: str) -> StandingEvaluation | None:
        """The shared evaluation behind a query text (tests, bench)."""
        with self._lock:
            return self._evaluations.get(query_text)

    @property
    def evaluation_count(self) -> int:
        """Distinct compiled standing queries (dedupe visibility)."""
        with self._lock:
            return len(self._evaluations)

    def close(self) -> None:
        """Detach from the trigger hub and stop the bus workers."""
        self.warehouse.triggers.unsubscribe(self._on_event, "*")
        self.bus.close()

    # -- event routing ------------------------------------------------------

    def _on_event(self, event: ChangeEvent) -> None:
        with self._lock:
            watching = [
                (text, self._evaluations[text], self._eval_locks[text],
                 list(self._by_query.get(text, ())))
                for text in self._evaluations
                if self._evaluations[text].watches(event.source)]
        # a traced harvest round's refreshes join its trace; an untraced
        # round's open no spans
        tracer = self.warehouse.tracer if event.trace_id else NULL_TRACER
        context = TraceContext(trace_id=event.trace_id)
        for text, evaluation, eval_lock, subscriber_ids in watching:
            with tracer.span("subscriptions.refresh", context=context,
                             source=event.source,
                             subscribers=len(subscriber_ids)) as root:
                with eval_lock:
                    delta = evaluation.apply(event)
                root.meta["origin"] = delta.origin
                root.count("rows_added", len(delta.added))
                root.count("rows_removed", len(delta.removed))
            if delta.changed and subscriber_ids:
                self.bus.publish(subscriber_ids, delta)

    # -- persistence --------------------------------------------------------

    # Every write here takes the loader's write lock: the rows share
    # the warehouse connection with bulk sessions (harvest rounds), and
    # a commit or rollback mid-session would apply or discard the other
    # writer's statements.

    def _ensure_table(self) -> None:
        backend = self.warehouse.backend
        try:
            backend.execute("SELECT COUNT(*) FROM standing_subscriptions")
        except StorageError:
            with self.warehouse.loader.write_lock:
                backend.execute(_SUBSCRIPTIONS_DDL)
                backend.commit()

    def _persist(self, subscription: Subscription) -> None:
        with self.warehouse.loader.write_lock:
            self.warehouse.backend.execute(
                "INSERT INTO standing_subscriptions "
                "(sub_id, query_text, policy, mode, created_at) "
                "VALUES (?, ?, ?, ?, ?)",
                (subscription.id, subscription.query_text,
                 subscription.policy, subscription.mode,
                 subscription.created_at))
            self.warehouse.backend.commit()

    def _restore(self) -> None:
        rows = self.warehouse.backend.execute(
            "SELECT sub_id, query_text, policy, mode, created_at "
            "FROM standing_subscriptions")
        for sub_id, query_text, policy, mode, created_at in rows:
            if sub_id in self._subscribers:
                continue
            try:
                subscription = self.subscribe(
                    query_text, policy=policy,
                    subscription_id=sub_id, persist=False)
            except ReproError:
                # an unparsable persisted query (schema drift) must not
                # take the manager down with it
                if self._events is not None:
                    self._events.emit("subscriptions.restore_failed",
                                      severity="error", sub_id=sub_id)
                continue
            subscription.persisted = True
            subscription.created_at = created_at
            subscription.mode = mode

    # -- observability ------------------------------------------------------

    def _set_active(self) -> None:
        self._metrics.set_gauge("subscriptions.active",
                                len(self._subscribers))
        self._metrics.set_gauge("subscriptions.standing_queries",
                                len(self._evaluations))

    def stats(self) -> dict:
        """Manager + bus counters (the service's operator view)."""
        with self._lock:
            evaluations = {
                text: {
                    "subscribers": len(self._by_query.get(text, ())),
                    "refreshes": evaluation.refreshes,
                    "incremental": evaluation.incremental_refreshes,
                    "full": evaluation.full_refreshes,
                    "rows": evaluation.total_rows,
                    "sources": evaluation.sources,
                } for text, evaluation in self._evaluations.items()}
        return {
            "subscribers": len(self._subscribers),
            "standing_queries": len(evaluations),
            "evaluations": evaluations,
            "bus": self.bus.stats(),
        }


def payload_json(payload: dict) -> str:
    """Canonical JSON for one delta payload (SSE ``data:`` lines and
    the CLI tail share it)."""
    return json.dumps(payload, sort_keys=True)
