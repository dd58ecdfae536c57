"""harvest_delta: a harvest delta reaches its subscribers.

One living warehouse, harvested once in set-up, watched by three
standing queries shared by eight callback subscribers. Each round
publishes the next ENZYME release (1 % of entries changed in a
projected field, 0.25 % removed, the previous round's removals back)
and calls ``hound.load``: per-document upserts into an indexed,
queried warehouse, Data Hounds diffing, incremental view maintenance
and the delivery bus.
"""

from __future__ import annotations

import gc
from contextlib import nullcontext
from time import perf_counter

import inputs
import library
from harness import Context, Measurement, median, stretch_percentile
from spec import REMOVE_SHARE, SUBSCRIBERS, UPDATE_SHARE
from trace import TimedBackend, relational_metrics

from repro.datahounds import InMemoryRepository, ReleaseSnapshot, diff_releases
from repro.datahounds.registry import SourceRegistry
from repro.engine import Warehouse
from repro.flatfile import parse_entries
from repro.relational.sqlite_backend import SqliteBackend
from repro.subscriptions import StandingEvaluation, SubscriptionManager

ENZYME = "hlx_enzyme"
#: rounds run before recording starts (removals only start coming
#: back in the second release)
WARMUP_ROUNDS = 3


class SpannedRepository:
    """The transport as the hound sees it, with each fetch a span."""

    def __init__(self, inner, recorder):
        self.inner = inner
        self.recorder = recorder

    def fetch(self, source, release=None):
        with self.recorder.span("datahounds.fetch"):
            return self.inner.fetch(source, release)

    def latest_release(self, source):
        return self.inner.latest_release(source)

    def sources(self):
        return self.inner.sources()


class Living:
    """A warehouse kept fresh: its hound, its subscribers and the
    chain of ENZYME releases that feeds it.

    Built from nothing it harvests the whole corpus first (the
    workload's set-up). Given a ``warehouse`` that was bulk-loaded it
    adopts it the way a restarted harvester would: the loaded
    release's fingerprints are saved as the hound's snapshot, so the
    first ``hound.load`` is already a delta."""

    def __init__(self, ctx: Context, texts: dict[str, str],
                 warehouse: Warehouse | None = None, timed: bool = False):
        self.texts = texts
        self.repository = InMemoryRepository()
        repository = self.repository
        self.timed = self.raw = None
        self.owns_warehouse = warehouse is None
        if warehouse is None:
            self.raw = SqliteBackend()
            if timed:
                self.timed = TimedBackend(self.raw, ctx.recorder)
                repository = SpannedRepository(repository, ctx.recorder)
            warehouse = Warehouse(backend=self.timed or self.raw)
        else:
            transformer = SourceRegistry().create(ENZYME, validate=False)
            warehouse.loader.save_snapshot(
                ENZYME, "r00001", ReleaseSnapshot.build("r00001", [
                    (transformer.entry_key(entry), entry)
                    for entry in parse_entries(texts[ENZYME])
                ]).fingerprints)
        self.warehouse = warehouse
        self.hound = warehouse.connect(repository)
        if self.owns_warehouse:
            start = perf_counter()
            for source, text in texts.items():
                self.repository.publish(source, "r00001", text)
                self.hound.load(source)
            self.build_s = perf_counter() - start
            self.db_bytes = library.page_bytes(self.raw)
        self.manager = SubscriptionManager(warehouse)
        #: perf_counter() of every delivery, appended by bus workers
        self.arrivals: list[float] = []
        for index in range(SUBSCRIBERS):
            text = inputs.STANDING_QUERIES[
                index % len(inputs.STANDING_QUERIES)]
            self.manager.subscribe(text, callback=self._deliver)
        self.chain = inputs.ReleaseChain(
            texts[ENZYME], ctx.seed, UPDATE_SHARE, REMOVE_SHARE)

    def _deliver(self, delta) -> None:
        self.arrivals.append(perf_counter())

    def round(self, recorder=None):
        """Publish the next release (untimed), harvest it (timed), wait
        for the bus to drain; returns ``(load seconds, lag seconds,
        bus lag seconds, documents changed, report, expected)``."""
        release, text, expected = self.chain.advance()
        self.repository.publish(ENZYME, release, text)
        self.arrivals.clear()
        # building the release leaves garbage behind; it is collected
        # here, outside the timed section, not wherever it falls due
        gc.collect()
        span = (recorder.span("datahounds.load") if recorder is not None
                else nullcontext())
        called = perf_counter()
        with span:
            report = self.hound.load(ENZYME)
        returned = perf_counter()
        drained = self.manager.bus.flush(timeout=60.0)
        last = max(self.arrivals) if drained and self.arrivals else None
        plan = report.plan
        changed = len(plan.added) + len(plan.updated) + len(plan.removed)
        return (returned - called,
                None if last is None else last - called,
                None if last is None else last - returned,
                changed, report, expected)

    def current_texts(self) -> dict[str, str]:
        """The flat-file releases the warehouse now reflects."""
        return {**self.texts, ENZYME: self.chain.text}

    def stale_snapshots(self) -> int:
        """Standing queries whose maintained snapshot differs from a
        from-scratch evaluation."""
        wrong = 0
        for text in inputs.STANDING_QUERIES:
            scratch = StandingEvaluation(self.warehouse, text,
                                         incremental=False)
            scratch.refresh_full()
            wrong += (self.manager.evaluation_for(text).canonical()
                      != scratch.canonical())
        return wrong

    def differs_from_reload(self) -> bool:
        """Whether row counts differ from a warehouse bulk-loaded with
        the final releases."""
        reloaded = Warehouse()
        try:
            for source, text in self.current_texts().items():
                reloaded.load_text(source, text)
            return reloaded.stats() != self.warehouse.stats()
        finally:
            reloaded.close()

    def run(self, seconds: float, min_rounds: int) -> Measurement:
        """Harvest rounds until ``seconds`` have passed; each must
        change exactly the documents its release changed and reach
        the subscribers; afterwards every standing snapshot must equal
        a from-scratch query."""
        for _ in range(WARMUP_ROUNDS):
            self.round()
        rates, lags = [], []
        documents = failed = 0
        begin = perf_counter()
        while len(rates) < min_rounds or perf_counter() - begin < seconds:
            wall, lag, _, changed, _, expected = self.round()
            rates.append(changed / wall)
            documents += changed
            if lag is None or changed != expected:
                failed += 1
            else:
                lags.append(lag)
        stats = self.manager.stats()
        return Measurement(
            metrics={"delta_docs_per_s": median(rates),
                     "delivery_lag_p50_ms": median(lags) * 1e3,
                     "delivery_lag_p90_ms":
                         stretch_percentile(lags, 0.9) * 1e3},
            samples={"delta_docs_per_s": len(rates),
                     "delivery_lag_p50_ms": len(lags),
                     "delivery_lag_p90_ms": len(lags)},
            attempted=len(rates) + len(inputs.STANDING_QUERIES),
            failed=failed + self.stale_snapshots(),
            info={"rounds": len(rates), "documents_changed": documents,
                  "release_chain": self.chain.digest,
                  "refreshes_incremental_full": [
                      [entry["incremental"], entry["full"]]
                      for entry in stats["evaluations"].values()]})

    def close(self) -> None:
        self.manager.close()
        if self.owns_warehouse:
            self.warehouse.close()


def delta_phase(ctx: Context, warehouse: Warehouse, enzyme_text: str
                ) -> Measurement:
    """The harvest side of a workload whose window went elsewhere: the
    bulk-loaded ``warehouse`` is adopted by a hound with the usual
    subscribers and kept fresh for the scale's ``phase_seconds``. It
    changes the warehouse, so it runs after the workload's answers
    were checked."""
    living = Living(ctx, {ENZYME: enzyme_text}, warehouse=warehouse)
    try:
        return living.run(ctx.scale.phase_seconds, ctx.scale.min_rounds)
    finally:
        living.close()


def setup(ctx: Context, timed: bool = False) -> Living:
    """Corpus, initial harvest of all three sources, subscribers."""
    return Living(ctx, inputs.corpus(ctx.scale.harvest_corpus)
                  .texts(), timed=timed)


def teardown(living: Living) -> None:
    living.close()


def measure(ctx: Context, living: Living, seconds: float,
            phases: bool = True) -> Measurement:
    """Harvest rounds for ``seconds``, the full-reload check, then a
    short query phase over the warehouse the rounds left behind."""
    measurement = living.run(seconds, ctx.scale.min_rounds)
    measurement.attempted += 1
    measurement.failed += living.differs_from_reload()
    if phases:
        measurement.absorb(library.query_phase(
            living.warehouse, living.raw, living.current_texts(),
            library.canned_sequence(ctx, living.raw),
            ctx.scale.phase_seconds))
    return measurement


def traced(ctx: Context, living: Living, untraced: Measurement
           ) -> dict[str, float]:
    """A fixed number of rounds on a warehouse behind a
    ``TimedBackend``, its repository spanned, plus benchmark-side
    copies of the work ``hound.load`` does inside: parsing, snapshot
    diffing, and one ``StandingEvaluation.apply`` per standing query
    from a trigger callback (the E17 way)."""
    recorder = ctx.recorder
    transformer = SourceRegistry().create(ENZYME, validate=False)
    shadows = [StandingEvaluation(living.warehouse, text)
               for text in inputs.STANDING_QUERIES]
    for shadow in shadows:
        shadow.refresh_full()
    delta_rows = 0

    def on_event(event) -> None:
        nonlocal delta_rows
        for shadow in shadows:
            with recorder.span("subscriptions.apply"):
                delta = shadow.apply(event)
            delta_rows += len(delta.added) + len(delta.removed)

    living.warehouse.triggers.subscribe(on_event, ENZYME)
    for _ in range(WARMUP_ROUNDS):
        living.round()
    previous = ReleaseSnapshot.build("warm", [
        (transformer.entry_key(entry), entry)
        for entry in parse_entries(living.chain.text)])
    before = living.timed.snapshot()
    manager_before = living.manager.stats()
    mark = len(recorder.spans)
    walls, rates, bus_lags = [], [], []
    documents = entries = unchanged = 0
    for _ in range(ctx.scale.traced_rounds):
        wall, _, bus_lag, changed, report, _ = living.round(recorder)
        walls.append(wall)
        rates.append(changed / wall)
        documents += changed
        if bus_lag is not None:
            bus_lags.append(bus_lag)
        unchanged += len(report.plan.unchanged)
        with recorder.span("flatfile.parse"):
            parsed = parse_entries(living.chain.text)
        entries += len(parsed)
        keyed = [(transformer.entry_key(entry), entry) for entry in parsed]
        with recorder.span("datahounds.diff"):
            snapshot = ReleaseSnapshot.build(report.release, keyed)
            diff_releases(previous, snapshot)
        previous = snapshot
    living.warehouse.triggers.unsubscribe(on_event, ENZYME)
    relational = relational_metrics([living.timed], [before])
    busy, own, _ = recorder.totals(mark)

    manager_now = living.manager.stats()

    def grown(section: str, field: str) -> int:
        return sum(entry[field] - manager_before[section][name][field]
                   for name, entry in manager_now[section].items())

    incremental = grown("evaluations", "incremental")
    full = grown("evaluations", "full")
    loads = sum(walls)
    # the trigger callback runs inside hound.load, so the shadows' own
    # time and every statement they send are part of the load wall
    by_hand = (busy["datahounds.fetch"] + busy["flatfile.parse"]
               + busy["datahounds.diff"] + relational["relational.busy_s"]
               + own["subscriptions.apply"])
    return {
        "traced_headline": median(rates),
        "trace.attributed_share": by_hand / loads,
        "flatfile.parse_s": busy["flatfile.parse"],
        "flatfile.entries": entries,
        "datahounds.fetch_s": busy["datahounds.fetch"],
        "datahounds.diff_s": busy["datahounds.diff"],
        "datahounds.load_s": busy["datahounds.load"],
        "datahounds.unchanged_skipped_ratio": unchanged / entries,
        "subscriptions.apply_s": busy["subscriptions.apply"],
        "subscriptions.incremental_ratio":
            incremental / max(1, incremental + full),
        "subscriptions.delta_rows": delta_rows,
        "subscriptions.bus_lag_ms": median(bus_lags) * 1e3,
        "subscriptions.deliveries": grown("bus", "delivered"),
        "subscriptions.dropped": grown("bus", "dropped"),
        **relational,
        "relational.statements_per_doc":
            relational["relational.statements"] / max(1, documents),
    }
