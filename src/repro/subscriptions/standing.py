"""The embedded single-subscriber API: one query, one callback.

The gRNA loop the paper sketches: applications consume XomatiQ results,
and Data Hounds "sends out triggers to related applications, indicating
changes to the warehouse". A :class:`QuerySubscription` closes that
loop — it registers a query with a hound, refreshes it whenever a
release load changes one of the *sources the query actually reads*
(derived from its FOR bindings), and hands the subscriber a row-level
delta rather than the raw trigger. Refreshes are incremental where the
event allows it (see :mod:`repro.subscriptions.ivm`): cost scales with
the harvest delta, not the warehouse.

Usage::

    hound = warehouse.connect(repository)
    sub = QuerySubscription(warehouse, hound, QUERY_TEXT,
                            on_change=my_callback)
    hound.load("hlx_enzyme")          # initial load fires the callback
    ...
    hound.load("hlx_enzyme")          # refresh: callback gets the delta

For many subscribers, shared evaluations, asynchronous fan-out and
durable registrations, use
:class:`~repro.subscriptions.manager.SubscriptionManager` instead.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable

from repro.datahounds.triggers import ChangeEvent
from repro.results.resultset import QueryResult
from repro.subscriptions.delta import ResultDelta
from repro.subscriptions.ivm import StandingEvaluation, sources_of
from repro.xquery.parser import parse_query

DeltaCallback = Callable[[ResultDelta], None]


class QuerySubscription:
    """A standing XomatiQ query bound to a warehouse and its hound."""

    def __init__(self, warehouse, hound, query_text: str,
                 on_change: DeltaCallback | None = None,
                 fire_on_unchanged: bool = False,
                 incremental: bool = True):
        self.warehouse = warehouse
        self.hound = hound
        self.query_text = query_text
        self.on_change = on_change
        self.fire_on_unchanged = fire_on_unchanged
        self._evaluation = StandingEvaluation(warehouse, query_text,
                                              incremental=incremental)
        self.sources = list(self._evaluation.sources)
        self.deliveries = 0
        self._metrics = warehouse.metrics
        for source in self.sources:
            hound.subscribe(self._handle_event, source)

    @staticmethod
    def _sources_of(query_text: str) -> list[str]:
        """The warehouse sources the query's bindings read; ``["*"]``
        when none resolve (never silently subscribe to nothing)."""
        return sources_of(parse_query(query_text))

    # -- evaluation ---------------------------------------------------------

    @property
    def refreshes(self) -> int:
        """Re-evaluations so far (incremental and full alike)."""
        return self._evaluation.refreshes

    @property
    def last_result(self) -> QueryResult | None:
        """Result as of the latest refresh."""
        return self._evaluation.last_result

    def refresh(self, event: ChangeEvent | None = None) -> ResultDelta:
        """Refresh and compute the delta against the previous snapshot.

        Called automatically from triggers (incremental when the event
        allows it); callable manually for an unconditional full
        re-evaluation — e.g. to prime the subscription before the
        first load (a query over a not-yet-loaded document is treated
        as empty, not an error: the subscription exists precisely to
        wait for that load).
        """
        if event is None:
            keyed = self._evaluation.refresh_full(None)
        else:
            keyed = self._evaluation.apply(event)
        return keyed.to_result_delta(event)

    def _handle_event(self, event: ChangeEvent) -> None:
        delta = self.refresh(event)
        if self.on_change is not None and (delta.changed
                                           or self.fire_on_unchanged):
            start = perf_counter()
            self.on_change(delta)
            self.deliveries += 1
            self._metrics.inc("subscriptions.deliveries")
            self._metrics.observe("subscriptions.delivery_seconds",
                                  perf_counter() - start)

    def cancel(self) -> None:
        """Stop receiving triggers."""
        for source in self.sources:
            self.hound.triggers.unsubscribe(self._handle_event, source)
