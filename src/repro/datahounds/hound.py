"""The Data Hound orchestrator (paper Figure 1).

One :class:`DataHound` ties the pipeline together for a set of sources:

1. **transport** — fetch a release from the (simulated) remote
   repository,
2. **XML-Transformer** — flat entries → validated XML documents,
3. **XML2Relational-Transformer** — documents → tuples in the warehouse
   (delegated to a :class:`DocumentStore`, implemented by
   :mod:`repro.shredding.loader`),
4. **updates** — on refresh, only entries whose content changed are
   parsed, re-transformed and re-loaded (unchanged ones are recognised
   by the fingerprint of their raw text); vanished entries are removed,
5. **triggers** — committed changes are announced to subscribed
   applications.

The hound never interprets documents itself; everything source-specific
lives in the registered transformer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from time import perf_counter
from typing import Protocol

from repro.datahounds.registry import SourceRegistry
from repro.datahounds.transformer import SourceTransformer
from repro.datahounds.triggers import ChangeEvent, TriggerHub
from repro.datahounds.updates import (
    ReleaseSnapshot,
    UpdatePlan,
    chunk_fingerprint,
    diff_releases,
    entry_fingerprint,
)
from repro.errors import DataHoundsError, ReproError
from repro.flatfile import Entry, parse_entry, scan_entries
from repro.obs.metrics import NULL_METRICS
from repro.obs.trace import NULL_TRACER
from repro.xmlkit import Document


class DocumentStore(Protocol):
    """Where shredded documents land (the relational warehouse).

    Stores may additionally expose ``load_snapshots()`` (restored when
    a hound is constructed: source → (release, key → fingerprint),
    fingerprints as :func:`~repro.datahounds.updates.entry_fingerprint`
    defines them) and ``optimize()`` (called after every round; the
    warehouse loader runs ANALYZE there only when its document count
    has drifted, see
    :meth:`~repro.shredding.loader.WarehouseLoader.optimize`)."""

    def bulk_session(self):
        """One write transaction: a context manager with ``add(source,
        collection, entry_key, document)``, ``remove(source,
        entry_key)`` and ``save_snapshot(source, release,
        fingerprints)``. It commits once on a clean exit and rolls
        back, leaving the store untouched, when the block raises."""


class Repository(Protocol):
    """Transport protocol (see :mod:`repro.datahounds.transport`)."""

    def fetch(self, source: str, release: str | None = None):
        """Fetch one release (latest when unspecified)."""

    def latest_release(self, source: str) -> str:
        """Greatest release id of a source."""


@dataclass
class LoadReport:
    """Outcome of one load/refresh."""

    source: str
    release: str
    plan: UpdatePlan
    documents_loaded: int
    triggers_fired: int
    #: entry keys skipped by quarantine mode (malformed content);
    #: empty in strict mode, which aborts the whole release instead
    quarantined: tuple[str, ...] = ()

    def __str__(self) -> str:
        text = (f"{self.source}@{self.release}: loaded "
                f"{self.documents_loaded} documents "
                f"(+{len(self.plan.added)} ~{len(self.plan.updated)} "
                f"-{len(self.plan.removed)}, "
                f"{len(self.plan.unchanged)} unchanged)")
        if self.quarantined:
            text += f", {len(self.quarantined)} quarantined"
        return text


@dataclass(frozen=True)
class SourceFailure:
    """One source's failure inside a multi-source harvest run."""

    source: str
    error: str
    error_type: str

    def __str__(self) -> str:
        return f"{self.source}: {self.error_type}: {self.error}"


@dataclass
class HarvestReport:
    """Outcome of one :meth:`DataHound.harvest_all` run: per-source
    load reports for the sources that made it, per-source failures for
    the ones that did not — one bad mirror never aborts the run."""

    reports: dict[str, LoadReport] = field(default_factory=dict)
    failures: dict[str, SourceFailure] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True when every source harvested cleanly."""
        return not self.failures

    @property
    def documents_loaded(self) -> int:
        """Total documents loaded across all successful sources."""
        return sum(r.documents_loaded for r in self.reports.values())

    def __str__(self) -> str:
        lines = [f"harvest: {len(self.reports)} ok, "
                 f"{len(self.failures)} failed"]
        for source in sorted(self.reports):
            lines.append(f"  [+] {self.reports[source]}")
        for source in sorted(self.failures):
            lines.append(f"  [!] {self.failures[source]}")
        return "\n".join(lines)


class DataHound:
    """Harvests sources from a repository into a document store."""

    def __init__(self, repository: Repository, store: DocumentStore,
                 registry: SourceRegistry | None = None,
                 validate: bool = True,
                 quarantine: bool = False,
                 tracer=NULL_TRACER, metrics=NULL_METRICS, events=None,
                 triggers: TriggerHub | None = None):
        self.repository = repository
        self.store = store
        self.registry = registry or SourceRegistry()
        self.validate = validate
        #: quarantine mode skips (and reports) malformed entries
        #: instead of aborting the whole release; the default stays
        #: strict all-or-nothing ("without any information being left
        #: out or added twice")
        self.quarantine = quarantine
        #: :class:`repro.obs.Tracer`; loads run inside per-phase spans
        #: (fetch, diff, transform, store) with entries/s throughput
        #: recorded on the load span
        self.tracer = tracer
        #: :class:`repro.obs.MetricsRegistry`; harvests feed
        #: ``hound.*`` counters/gauges (load counts, entry deltas,
        #: per-source last-harvest timestamp read by the health report)
        self.metrics = metrics
        #: optional :class:`repro.obs.EventLog`; each load emits one
        #: ``hound.load`` event with the release and delta counts
        self.events = events
        #: trigger dispatch; pass a shared :class:`TriggerHub` (the
        #: warehouse owns one) so subscriptions outlive any single
        #: hound — every hound harvesting into the same warehouse then
        #: announces through the same hub
        self.triggers = (triggers if triggers is not None
                         else TriggerHub(metrics=metrics, events=events))
        self._snapshots: dict[str, ReleaseSnapshot] = {}
        self._transformers: dict[str, SourceTransformer] = {}
        # crash recovery: stores that persist release snapshots (the
        # warehouse loader does) hand back every source's last loaded
        # release, so a restarted process resumes incremental diffs
        # instead of re-harvesting from nothing
        restore = getattr(store, "load_snapshots", None)
        if restore is not None:
            for source, (release, fingerprints) in restore().items():
                self._snapshots[source] = ReleaseSnapshot(
                    release, dict(fingerprints))

    # -- public API ---------------------------------------------------------

    def load(self, source: str, release: str | None = None) -> LoadReport:
        """Load (or refresh to) a release of a source.

        The first load of a source fills the warehouse; subsequent loads
        apply only the entry-level diff, so nothing is added twice and
        removals are never left out.
        """
        transformer = self._transformer(source)
        start = perf_counter()
        with self.tracer.span("load", source=source) as load_span:
            with self.tracer.span("fetch"):
                fetched = self.repository.fetch(source, release)
            previous = self._snapshots.get(source)
            with self.tracer.span("parse"):
                keyed, entry_map = self._fingerprint(
                    transformer, fetched.text, previous)
            self._check_duplicate_keys(source, keyed)

            with self.tracer.span("diff"):
                new_snapshot = ReleaseSnapshot(fetched.release, dict(keyed))
                plan = diff_releases(previous, new_snapshot)

            # two-phase apply: transform every touched entry BEFORE
            # storing anything, so a malformed entry anywhere in the
            # release aborts the refresh with the warehouse untouched
            # ("without any information being left out or added twice").
            # In quarantine mode a malformed entry is skipped and
            # reported instead, and its fingerprint is withheld from
            # the snapshot so the next refresh retries it.
            staged: list[tuple[str, str, Document]] = []
            quarantined: list[str] = []
            with self.tracer.span("transform"):
                for key in plan.touched:
                    entry = entry_map[key]
                    try:
                        document = transformer.transform_entry(entry)
                    except ReproError as exc:
                        if not self.quarantine:
                            raise
                        quarantined.append(key)
                        self._record_quarantine(source, fetched.release,
                                                key, exc)
                        continue
                    staged.append((key, transformer.collection_of(entry),
                                   document))

            # quarantined keys must not enter the committed snapshot: a
            # new entry that never loaded is withheld entirely, an
            # updated one keeps its previous fingerprint — either way
            # the next refresh sees it as still-pending work instead of
            # already-applied
            for key in quarantined:
                new_snapshot.fingerprints.pop(key, None)
                if previous is not None and key in previous.fingerprints:
                    new_snapshot.fingerprints[key] = (
                        previous.fingerprints[key])

            # the round is one transaction: upserts, removals and the
            # snapshot commit together or, on failure, not at all
            with self.tracer.span("store") as store_span:
                with self.store.bulk_session() as session:
                    for key, collection, document in staged:
                        session.add(source, collection, key, document)
                    for key in plan.removed:
                        session.remove(source, key)
                    session.save_snapshot(source, new_snapshot.release,
                                          new_snapshot.fingerprints)
            loaded = len(staged)
            self._snapshots[source] = new_snapshot

            # planner statistics are refreshed only when the store's
            # row counts have drifted (the store's optimize decides)
            optimize = getattr(self.store, "optimize", None)
            if optimize is not None:
                optimize()

            load_span.count("entries", len(keyed))
            load_span.count("parsed", len(entry_map))
            load_span.count("loaded", loaded)
            load_span.count("removed", len(plan.removed))
            if store_span.duration_s > 0:
                load_span.meta["entries_per_s"] = round(
                    loaded / store_span.duration_s, 2)

        self._record_load(source, fetched.release, plan, loaded,
                          perf_counter() - start)
        if plan.is_noop:
            # an unchanged re-harvest is not a change: subscribers
            # never see an empty-delta notification
            fired = 0
        else:
            quarantined_set = frozenset(quarantined)
            event = ChangeEvent(
                source=source, release=fetched.release,
                added=tuple(k for k in plan.added
                            if k not in quarantined_set),
                updated=tuple(k for k in plan.updated
                              if k not in quarantined_set),
                removed=plan.removed,
                trace_id=load_span.trace_id)
            fired = self.triggers.fire(event)
        return LoadReport(source=source, release=fetched.release, plan=plan,
                          documents_loaded=loaded, triggers_fired=fired,
                          quarantined=tuple(quarantined))

    def refresh(self, source: str) -> LoadReport:
        """Load the latest release of an already-known source."""
        return self.load(source, release=None)

    def harvest_all(self, sources=None,
                    fail_fast: bool = False) -> HarvestReport:
        """Harvest the latest release of every source, isolating
        per-source failures.

        ``sources`` defaults to everything the repository publishes
        that this hound's registry knows how to transform. A source
        whose fetch/transform/load fails lands in
        ``report.failures`` — with its error — while the remaining
        sources still harvest; ``fail_fast=True`` restores the
        abort-on-first-error behaviour.
        """
        if sources is None:
            listed = getattr(self.repository, "sources", None)
            published = listed() if listed is not None else []
            sources = [s for s in published if s in self.registry]
        report = HarvestReport()
        for source in sources:
            try:
                report.reports[source] = self.load(source)
            except ReproError as exc:
                if fail_fast:
                    raise
                report.failures[source] = SourceFailure(
                    source=source, error=str(exc),
                    error_type=type(exc).__name__)
                self.metrics.inc("hound.harvest_failures", source=source)
                if self.events is not None:
                    self.events.emit("hound.harvest_error",
                                     severity="error", source=source,
                                     error_type=type(exc).__name__,
                                     error=str(exc))
        if self.events is not None:
            self.events.emit(
                "hound.harvest", ok=len(report.reports),
                failed=len(report.failures),
                documents_loaded=report.documents_loaded)
        return report

    def loaded_release(self, source: str) -> str | None:
        """Release currently reflected in the warehouse, or None."""
        snapshot = self._snapshots.get(source)
        return snapshot.release if snapshot else None

    def subscribe(self, callback, source: str = "*") -> None:
        """Subscribe an application to warehouse change triggers."""
        self.triggers.subscribe(callback, source)

    # -- internals -----------------------------------------------------------

    def _record_load(self, source: str, release: str, plan: UpdatePlan,
                     loaded: int, duration_s: float) -> None:
        """Always-on harvest metrics + one ``hound.load`` event."""
        metrics = self.metrics
        metrics.inc("hound.loads", source=source)
        metrics.observe("hound.load_seconds", duration_s)
        metrics.inc("hound.entries_added", len(plan.added), source=source)
        metrics.inc("hound.entries_updated", len(plan.updated),
                    source=source)
        metrics.inc("hound.entries_removed", len(plan.removed),
                    source=source)
        metrics.inc("hound.entries_unchanged", len(plan.unchanged),
                    source=source)
        metrics.set_gauge("hound.last_harvest_timestamp", time.time(),
                          source=source)
        if self.events is not None:
            self.events.emit(
                "hound.load", source=source, release=release,
                loaded=loaded, added=len(plan.added),
                updated=len(plan.updated), removed=len(plan.removed),
                unchanged=len(plan.unchanged),
                duration_ms=round(duration_s * 1000.0, 3))

    def _record_quarantine(self, source: str, release: str, key: str,
                           exc: Exception) -> None:
        """One malformed entry skipped by quarantine mode."""
        self.metrics.inc("hound.entries_quarantined", source=source)
        if self.events is not None:
            self.events.emit("hound.quarantine", severity="warning",
                             source=source, release=release, entry_key=key,
                             error_type=type(exc).__name__,
                             error=str(exc))

    def _transformer(self, source: str) -> SourceTransformer:
        if source not in self._transformers:
            self._transformers[source] = self.registry.create(
                source, validate=self.validate)
        return self._transformers[source]

    def _fingerprint(self, transformer: SourceTransformer, text: str,
                     previous: ReleaseSnapshot | None
                     ) -> tuple[list[tuple[str, str]], dict[str, Entry]]:
        """Key and fingerprint every entry of a release, parsing only
        the entries the previous snapshot does not already hold.

        Each entry's raw text is fingerprinted first
        (:func:`~repro.datahounds.updates.chunk_fingerprint`, equal to
        :func:`~repro.datahounds.updates.entry_fingerprint` of the
        parsed entry). A fingerprint the previous snapshot holds is an
        unchanged entry, and its key comes from that snapshot. Every
        other entry is parsed and keyed by the transformer. Returns the
        ``(key, fingerprint)`` pairs in release order and the parsed
        entries by key."""
        known = ({fingerprint: key for key, fingerprint
                  in previous.fingerprints.items()}
                 if previous is not None else {})
        keyed: list[tuple[str | None, str | None]] = []
        parsed: list[tuple[int, Entry]] = []
        for first, lines in scan_entries(text.splitlines()):
            fingerprint = chunk_fingerprint(lines)
            key = known.get(fingerprint)
            if key is None:
                parsed.append((len(keyed), parse_entry(first, lines)))
            keyed.append((key, fingerprint))
        entry_map: dict[str, Entry] = {}
        for index, entry in parsed:
            key = transformer.entry_key(entry)
            fingerprint = keyed[index][1] or entry_fingerprint(entry)
            keyed[index] = (key, fingerprint)
            entry_map[key] = entry
        return keyed, entry_map

    @staticmethod
    def _check_duplicate_keys(source: str,
                              keyed: list[tuple[str, str]]) -> None:
        seen: set[str] = set()
        for key, __ in keyed:
            if key in seen:
                raise DataHoundsError(
                    f"{source}: duplicate entry key {key!r} in release "
                    f"(would be added twice)")
            seen.add(key)
