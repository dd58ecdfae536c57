"""Delta fan-out: bounded per-subscriber queues on a worker pool.

The harvest path must never wait on a subscriber. ``TriggerHub.fire``
runs inside ``DataHound.load``, so everything downstream of the
refresh — pushing deltas to N subscribers, some of them slow or broken
— happens here, asynchronously, behind bounded queues:

* every subscriber owns one FIFO queue (bound: ``queue_max``) and a
  backpressure policy deciding what happens when it fills:

  - ``block``     — the publisher waits for room (lossless, couples
                    the producer to the slowest subscriber; the only
                    policy that can stall the harvest path, and it
                    says so on the label),
  - ``drop_oldest`` — the oldest queued delta is discarded
                    (``subscriptions.dropped``); bounded lag, lossy,
  - ``coalesce``  — a new delta is merged into the newest queued one
                    with exact cancellation (``subscriptions.
                    coalesced``); bounded lag, lossless in net effect
                    (a subscriber that wakes up late sees one delta
                    equal to the sum of what it missed);

* a small worker pool drains the queues; deliveries for one subscriber
  stay in order (a subscriber is owned by at most one worker at a
  time), different subscribers proceed in parallel;
* metrics: ``subscriptions.queue_depth`` (gauge, total queued),
  ``subscriptions.lag_seconds`` (enqueue → delivery),
  ``subscriptions.deliveries`` / ``delivery_seconds`` /
  ``delivery_failed`` / ``dropped`` / ``coalesced``;
* when the warehouse traces, each delivery runs inside a
  ``subscription.delivery`` span carrying the *harvest's* trace id, so
  one trace id follows a release from fetch to subscriber callback.
"""

from __future__ import annotations

import threading
from collections import deque
from time import perf_counter, time as wall_time

from repro.obs.metrics import NULL_METRICS
from repro.obs.trace import NULL_TRACER, TraceContext

from repro.subscriptions.delta import KeyedDelta

POLICIES = ("block", "drop_oldest", "coalesce")


class _SubscriberQueue:
    __slots__ = ("callback", "policy", "limit", "items", "scheduled",
                 "delivered", "dropped", "coalesced", "failed")

    def __init__(self, callback, policy: str, limit: int):
        self.callback = callback
        self.policy = policy
        self.limit = limit
        #: queued (delta, enqueued_at_wall) pairs
        self.items: deque = deque()
        #: True while queued for / owned by a worker (ordering guard)
        self.scheduled = False
        self.delivered = 0
        self.dropped = 0
        self.coalesced = 0
        self.failed = 0


class DeliveryBus:
    """Fan deltas out to registered subscribers without ever letting a
    slow one (under ``drop_oldest``/``coalesce``) stall the publisher.
    """

    def __init__(self, workers: int = 2, queue_max: int = 64,
                 metrics=NULL_METRICS, events=None,
                 tracer_provider=lambda: NULL_TRACER):
        self.queue_max = max(1, queue_max)
        self._metrics = metrics
        self._events = events
        #: zero-arg callable returning the current tracer — late-bound
        #: because ``enable_tracing`` may run after the bus is built
        self._tracer_provider = tracer_provider
        self._cond = threading.Condition()
        self._queues: dict[str, _SubscriberQueue] = {}
        self._ready: deque[str] = deque()
        self._pending = 0      # queued deltas across all subscribers
        self._in_flight = 0    # deliveries currently inside a callback
        self._closed = False
        self._workers = [
            threading.Thread(target=self._worker, daemon=True,
                             name=f"delivery-bus-{index}")
            for index in range(max(1, workers))]
        for worker in self._workers:
            worker.start()

    # -- registration -------------------------------------------------------

    def register(self, subscriber_id: str, callback,
                 policy: str = "block",
                 queue_max: int | None = None) -> None:
        """Attach a subscriber; ``callback`` receives each
        :class:`KeyedDelta` on a worker thread."""
        if policy not in POLICIES:
            raise ValueError(f"unknown backpressure policy {policy!r} "
                             f"(expected one of {', '.join(POLICIES)})")
        with self._cond:
            self._queues[subscriber_id] = _SubscriberQueue(
                callback, policy, queue_max or self.queue_max)

    def unregister(self, subscriber_id: str) -> None:
        """Detach a subscriber; queued deltas are discarded."""
        with self._cond:
            queue = self._queues.pop(subscriber_id, None)
            if queue is not None:
                self._pending -= len(queue.items)
                queue.items.clear()
                self._set_depth()
                self._cond.notify_all()

    @property
    def subscriber_count(self) -> int:
        """Registered subscribers."""
        with self._cond:
            return len(self._queues)

    # -- publish ------------------------------------------------------------

    def publish(self, subscriber_ids, delta: KeyedDelta) -> int:
        """Enqueue one delta for each subscriber; returns how many
        queues accepted it (dropped/coalesced still count — the
        subscriber will observe the change, just folded or later)."""
        accepted = 0
        for subscriber_id in subscriber_ids:
            if self._enqueue(subscriber_id, delta):
                accepted += 1
        return accepted

    def _enqueue(self, subscriber_id: str, delta: KeyedDelta) -> bool:
        with self._cond:
            queue = self._queues.get(subscriber_id)
            if queue is None:
                return False
            if queue.policy == "coalesce" and queue.items:
                # fold into the newest *queued* delta (in-flight ones
                # already left the queue, so ordering is preserved)
                old, enqueued_at = queue.items[-1]
                queue.items[-1] = (old.merge(delta), enqueued_at)
                queue.coalesced += 1
                self._metrics.inc("subscriptions.coalesced")
                return True
            if len(queue.items) >= queue.limit:
                if queue.policy == "drop_oldest":
                    queue.items.popleft()
                    self._pending -= 1
                    queue.dropped += 1
                    self._metrics.inc("subscriptions.dropped")
                else:   # block: lossless by choice, couples to consumer
                    while (len(queue.items) >= queue.limit
                           and not self._closed
                           and self._queues.get(subscriber_id) is queue):
                        self._cond.wait(0.05)
                    if (self._closed
                            or self._queues.get(subscriber_id) is not queue):
                        return False
            queue.items.append((delta, wall_time()))
            self._pending += 1
            self._set_depth()
            if not queue.scheduled:
                queue.scheduled = True
                self._ready.append(subscriber_id)
            self._cond.notify()
            return True

    # -- draining -----------------------------------------------------------

    def flush(self, timeout: float | None = None) -> bool:
        """Block until every queued delta has been delivered (tests and
        benchmarks); returns False on timeout."""
        deadline = None if timeout is None else perf_counter() + timeout
        with self._cond:
            while self._pending > 0 or self._in_flight > 0:
                remaining = None
                if deadline is not None:
                    remaining = deadline - perf_counter()
                    if remaining <= 0:
                        return False
                self._cond.wait(remaining if remaining is not None
                                else 0.5)
            return True

    def close(self) -> None:
        """Stop the workers; queued deltas are abandoned."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        for worker in self._workers:
            worker.join(timeout=2.0)

    def stats(self) -> dict:
        """Queue depths and counters per subscriber (operator view)."""
        with self._cond:
            return {
                subscriber_id: {
                    "policy": queue.policy,
                    "queued": len(queue.items),
                    "delivered": queue.delivered,
                    "dropped": queue.dropped,
                    "coalesced": queue.coalesced,
                    "failed": queue.failed,
                } for subscriber_id, queue in self._queues.items()}

    # -- worker pool --------------------------------------------------------

    def _worker(self) -> None:
        while True:
            with self._cond:
                while not self._ready and not self._closed:
                    self._cond.wait()
                if self._closed:
                    return
                subscriber_id = self._ready.popleft()
                queue = self._queues.get(subscriber_id)
                if queue is None or not queue.items:
                    if queue is not None:
                        queue.scheduled = False
                    continue
                delta, enqueued_at = queue.items.popleft()
                self._pending -= 1
                self._in_flight += 1
                self._set_depth()
                self._cond.notify_all()   # room freed: wake publishers
            self._deliver(subscriber_id, queue, delta, enqueued_at)
            with self._cond:
                self._in_flight -= 1
                if queue.items and self._queues.get(subscriber_id) is queue:
                    self._ready.append(subscriber_id)
                    self._cond.notify()
                else:
                    queue.scheduled = False
                self._cond.notify_all()   # flush() waiters

    def _deliver(self, subscriber_id: str, queue: _SubscriberQueue,
                 delta: KeyedDelta, enqueued_at: float) -> None:
        self._metrics.observe("subscriptions.lag_seconds",
                              max(0.0, wall_time() - enqueued_at))
        # a delta from a traced harvest round is delivered inside that
        # round's trace; an untraced round's delta opens no span
        tracer = self._tracer_provider() if delta.trace_id else NULL_TRACER
        with tracer.span("subscription.delivery",
                         context=TraceContext(trace_id=delta.trace_id),
                         subscriber=subscriber_id, origin=delta.origin,
                         added=len(delta.added),
                         removed=len(delta.removed)):
            start = perf_counter()
            try:
                queue.callback(delta)
            except Exception as exc:   # noqa: BLE001 - isolate subscribers
                queue.failed += 1
                self._metrics.inc("subscriptions.delivery_failed")
                if self._events is not None:
                    self._events.emit("subscriptions.delivery_failed",
                                      severity="error",
                                      subscriber=subscriber_id,
                                      error_type=type(exc).__name__,
                                      error=str(exc))
            else:
                queue.delivered += 1
                self._metrics.inc("subscriptions.deliveries")
                self._metrics.observe("subscriptions.delivery_seconds",
                                      perf_counter() - start)

    def _set_depth(self) -> None:
        self._metrics.set_gauge("subscriptions.queue_depth", self._pending)
