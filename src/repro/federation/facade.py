"""The federated facade: one XomatiQ surface over many shards.

:class:`FederatedXomatiQ` looks like a :class:`repro.engine.Warehouse`
from the query side — ``query()`` returns the same
:class:`~repro.results.resultset.QueryResult`, ``to_xml()`` renders
through the same tagger — but bindings scatter across per-source
warehouse shards and join back at the coordinator::

    from repro.federation import FederatedXomatiQ, ShardCatalog

    catalog = ShardCatalog()
    catalog.add_shard("s0")          # in-memory; give paths for disk
    catalog.add_shard("s1")
    catalog.assign("hlx_enzyme", "s0")
    catalog.assign("hlx_embl", "s1")

    fed = FederatedXomatiQ(catalog)
    fed.load_corpus(build_corpus(seed=7))
    result = fed.query(FIG11_JOIN)   # scatter, hash-join, re-tag

Loading a source routed to several shards partitions the release into
**contiguous** entry slices, one per shard in catalog order — that
plus the coordinator's ``(shard position, doc_id, node_id)`` sort is
what keeps federated results byte-identical to a monolithic warehouse
loaded from the same release.
"""

from __future__ import annotations

import math
import time

from repro.datahounds.registry import SourceRegistry
from repro.engine import Engine
from repro.errors import (
    FederationError,
    ShardConfigError,
    ShardUnreachableError,
    UnknownDocumentError,
)
from repro.federation.catalog import ShardCatalog
from repro.federation.costs import (
    BLOOM_FP_RATE,
    INLIST_CUTOFF,
    CostModel,
)
from repro.federation.executor import (
    DEGRADABLE,
    ScatterGatherExecutor,
    ShardBoundNode,
)
from repro.federation.planner import FederatedPlan, FederationPlanner
from repro.federation.stats import StatisticsCatalog, default_stats_path
from repro.results.resultset import QueryResult
from repro.xmlkit import Document
from repro.xquery.parser import parse_query
from repro.xquery.semantics import check_query


class FederatedXomatiQ(Engine):
    """Scatter-gather query engine over a :class:`ShardCatalog`."""

    def __init__(self, catalog: ShardCatalog,
                 registry: SourceRegistry | None = None,
                 validate_sources: bool = True,
                 metrics=None, trace=None,
                 max_workers: int | None = None,
                 stats: StatisticsCatalog | None = None,
                 stats_path=None,
                 fault_policy=None):
        """``metrics``/``trace`` follow :class:`~repro.engine.
        Warehouse` conventions (default registry / the null tracer; a
        real tracer is shared with every shard warehouse);
        ``max_workers`` caps the scatter pool (default: one thread per
        shard subquery). ``stats`` is the optimizer's statistics
        catalog (empty until :meth:`analyze` runs — plans stay
        rule-based until then); ``stats_path`` is where refreshed
        statistics persist (defaults to the shard map's sibling
        ``.stats.json`` when opened via :meth:`from_shard_map`)."""
        from repro.obs import EventLog, resolve_metrics, resolve_tracer
        self.catalog = catalog
        self.registry = registry or SourceRegistry()
        self.validate_sources = validate_sources
        self.metrics = resolve_metrics(metrics)
        self.events = EventLog()
        if self.catalog.metrics is None:
            # shard warehouses record into the facade's registry too
            self.catalog.metrics = self.metrics
        self.statistics = stats if stats is not None else StatisticsCatalog()
        self.stats_path = stats_path
        self.planner = FederationPlanner(
            catalog, cost_model=CostModel(self.statistics))
        self.executor = ScatterGatherExecutor(
            catalog, metrics=self.metrics, max_workers=max_workers,
            stats=self.statistics, policy=fault_policy)
        self.tracer = resolve_tracer(trace)
        if self.tracer.enabled:
            self.enable_tracing(self.tracer)

    @classmethod
    def from_shard_map(cls, path, **kwargs) -> "FederatedXomatiQ":
        """Open a federation from a shard-map registry file (what
        ``xomatiq query --shard-map`` does). A sibling statistics
        catalog (``shards.json`` → ``shards.stats.json``) is picked up
        automatically when present — cost-based planning without an
        explicit ``analyze`` on every open."""
        if "stats" not in kwargs:
            stats_path = kwargs.pop("stats_path", None) \
                or default_stats_path(path)
            stats = None
            try:
                stats = StatisticsCatalog.load(stats_path)
            except (OSError, ValueError, KeyError):
                stats = None
            kwargs["stats"] = stats
            kwargs["stats_path"] = stats_path
        return cls(ShardCatalog.load(path), **kwargs)

    # -- querying -------------------------------------------------------------

    def _trace_with(self, tracer) -> None:
        # one tracer for the coordinator, the executor and every shard
        # warehouse, so a federated query's trace is one connected tree
        self.executor.tracer = tracer
        self.catalog.set_tracer(tracer)

    def query(self, text: str,
              deadline_s: float | None = None) -> QueryResult:
        """Parse, check, plan, scatter, gather.

        ``deadline_s`` bounds the whole execution (the service maps
        ``X-Deadline-Ms`` here): shard subqueries still running when
        it passes are interrupted, and the answer degrades to the
        shards that made it, with ``result.failed_shards`` naming the
        ones that did not.

        On a traced federation, planning runs inside a ``plan`` span
        (parse/check/statistics refresh included) as a sibling of the
        executor's ``federated_query`` span, so a request trace reads
        handler → plan → scatter."""
        started = time.perf_counter()
        with self.tracer.span("plan", query=text) as span:
            plan = self.plan(text)
            span.meta["fanout"] = plan.fanout
        result = self.executor.execute(plan, deadline_s=deadline_s)
        self.metrics.observe("federation.query_seconds",
                             time.perf_counter() - started)
        return result

    def plan(self, text: str) -> FederatedPlan:
        """Parse, check and plan without executing (tests and the
        curious inspect pushdown/fan-out decisions here).

        With statistics collected, planning is cost-based; statistics
        gone stale (a shard's loader generation moved past the recorded
        one) auto-refresh first, so the pruner never acts on a proof
        that stopped being true."""
        ast = parse_query(text)
        check_query(ast, document_exists=self.document_exists,
                    dtd_for_source=self._dtd_for_source)
        self._refresh_stale_stats()
        return self.planner.plan(text, ast)

    def _refresh_stale_stats(self) -> None:
        """Re-analyze shards whose statistics no longer match their
        live loader generation. Only runs once statistics exist at all
        (`analyze` is the opt-in); unreachable shards are skipped —
        their records drop, which disables pruning for them."""
        if not self.statistics:
            return
        stale = self.statistics.stale_shards(self.catalog)
        if not stale:
            return
        self.statistics.collect(self.catalog, shard_names=stale)
        self.metrics.inc("federation.stats_refreshed", len(stale))
        self._persist_stats()

    def _persist_stats(self) -> None:
        if self.stats_path is not None:
            try:
                self.statistics.save(self.stats_path)
            except OSError:
                pass  # statistics are advisory; never fail the query

    # -- optimizer ------------------------------------------------------------

    def analyze(self, persist: bool = True) -> dict:
        """Collect optimizer statistics from every reachable shard
        (the ``xomatiq analyze`` verb). Returns the catalog summary;
        ``persist`` writes it to ``stats_path`` when one is set."""
        skipped = self.statistics.collect(self.catalog)
        if persist:
            self._persist_stats()
        summary = self.statistics.summary()
        if skipped:
            summary["shards_skipped"] = skipped
        return summary

    @property
    def retry_after_s(self) -> int:
        """Seconds a caller that refused a partial answer should wait:
        the breaker cooldown, rounded up (at least 1 s) — by then the
        lost shard has either probed healthy or stayed open."""
        return max(1, math.ceil(self.executor.policy.breaker_cooldown_s))

    def optimizer_stats(self) -> dict:
        """JSON-ready optimizer state (the service's ``/stats`` block):
        the statistics-catalog summary plus the pushdown cutoffs."""
        summary = self.statistics.summary()
        summary["inlist_cutoff"] = INLIST_CUTOFF
        summary["bloom_fp_rate"] = BLOOM_FP_RATE
        summary["stats_path"] = (str(self.stats_path)
                                 if self.stats_path is not None else None)
        return summary

    # -- loading --------------------------------------------------------------

    def load_text(self, source: str, flat_text: str,
                  batch_size: int | None = None) -> dict[str, int]:
        """Load one release into the source's shard(s); returns
        per-shard document counts.

        A multi-shard route partitions the release into contiguous
        entry slices (first shard gets the first slice), preserving
        monolithic document order across the federation. Each shard's
        slice is also written to every replica of that shard, so a
        replica can answer for its primary byte-identically."""
        from repro.flatfile import parse_entries
        shards = self.catalog.shards_for(source)
        if not shards:
            raise ShardConfigError(
                f"source {source!r} is not routed to any shard "
                f"(assign it with `xomatiq shard assign`)")
        entries = list(parse_entries(flat_text))
        counts: dict[str, int] = {}
        for shard, chunk in zip(shards, _slices(entries, len(shards))):
            warehouse = self.catalog.warehouse(shard)
            counts[shard] = warehouse.load_entries(
                source, chunk, batch_size=batch_size)
            self.metrics.inc("federation.documents_loaded", counts[shard],
                             shard=shard)
            for replica in self.catalog.replicas(shard):
                try:
                    self.catalog.warehouse(replica.name).load_entries(
                        source, chunk, batch_size=batch_size)
                except ShardUnreachableError:
                    # a down replica just loses this slice; the primary
                    # still holds it, and health reports the replica
                    self.metrics.inc("federation.replica_load_skipped",
                                     backend=replica.name)
        return counts

    def load_corpus(self, corpus) -> dict[str, int]:
        """Load a synthetic corpus; returns per-source totals (the
        :meth:`~repro.engine.Warehouse.load_corpus` shape)."""
        return {source: sum(self.load_text(source, text).values())
                for source, text in corpus.texts().items()}

    def harvest(self, repository, **options):
        """A federation has no single store to harvest into: each
        shard warehouse harvests its own mirror."""
        raise FederationError("harvest is a warehouse operation; "
                              "run it per shard")

    # -- catalog / admin ------------------------------------------------------

    def _on_shard(self, shard: str, call):
        """``call(warehouse)`` on the shard's first backend that
        answers; raises the last degradable error when none does.

        Backends with an open breaker go last, so an admin-path call
        (searches, stats, document fetch) reaches a healthy replica
        without first eating the dead primary's failure mode; replicas
        hold the same slice, so any of them answers for the shard. The
        open ones stay in the list — with every breaker open, trying
        is still better than lying — and the breakers are only read:
        half-open probing stays the query path's job."""
        backends = self.catalog.backends_for(shard)
        is_open = self.executor.breaker_is_open
        error = None
        for backend in sorted(backends, key=is_open):
            try:
                return call(self.catalog.warehouse(backend))
            except DEGRADABLE as exc:
                error = exc
        raise error

    def document_exists(self, source: str,
                        collection: str | None) -> bool:
        """True when some shard holds documents of the address.

        Each shard is asked through its first *healthy* backend —
        replicas hold the same slice, so they answer for a dead
        primary. A shard with no healthy backend at all counts as
        "may hold it": the query then proceeds and degrades to
        partial results with a warning instead of failing the
        semantic check outright."""
        maybe = False
        for shard in self.catalog.shards_for(source):
            try:
                if self._on_shard(shard, lambda warehouse: warehouse
                                  .document_exists(source, collection)):
                    return True
            except DEGRADABLE:
                maybe = True
        return maybe

    def keyword_search(self, phrase: str, source: str | None = None,
                       limit: int = 50) -> list[dict]:
        """Federated keyword search: every reachable shard answers
        locally (:meth:`repro.engine.Warehouse.keyword_search`), the
        coordinator merges and re-ranks. Each hit carries its
        ``shard`` so ``GET /documents/{doc_id}?shard=...`` can fetch
        the document from the right warehouse. A shard whose primary
        is down answers through a replica (hits keep the *shard*
        name); shards with no healthy backend are skipped — partial
        results, same degradation contract as :meth:`query`."""
        hits: list[dict] = []
        for name in self.catalog.shard_names():
            try:
                found = self._on_shard(name, lambda warehouse: warehouse
                                       .keyword_search(phrase, source=source,
                                                       limit=limit))
            except DEGRADABLE:
                continue
            hits.extend({**hit, "shard": name} for hit in found)
        hits.sort(key=lambda hit: (-hit["matches"], hit["shard"],
                                   hit["doc_id"]))
        return hits[:limit]

    def stats(self) -> dict[str, int]:
        """Aggregated warehouse stats summed across reachable shards
        (each answering through its first healthy backend), plus shard
        accounting (``shards``/``shards_unreachable``)."""
        out: dict[str, int] = {}
        unreachable = 0
        for name, stats in self.shard_stats().items():
            if "error" in stats:
                unreachable += 1
                continue
            for key, value in stats.items():
                out[key] = out.get(key, 0) + value
        out["shards"] = len(self.catalog.shard_names())
        out["shards_unreachable"] = unreachable
        return out

    def shard_stats(self) -> dict[str, dict]:
        """Per-shard stats from each shard's first healthy backend; a
        shard with none maps to ``{"error": reason}``."""
        out: dict[str, dict] = {}
        for name in self.catalog.shard_names():
            try:
                out[name] = self._on_shard(
                    name, lambda warehouse: warehouse.stats())
            except DEGRADABLE as exc:
                out[name] = {"error": str(exc)}
        return out

    def health(self, stale_after_s: float | None = None) -> dict:
        """Federation health: every shard's own health report rolled
        up under one status, plus the routing table, cumulative
        shard-error counters, per-backend circuit-breaker states (with
        last-failure timestamps) and replica reachability. An open
        breaker warns; a shard whose replicas are *all* down fails —
        it promised redundancy and currently has none. ``format_health``
        renders the roll-up."""
        from repro.obs.health import (  # noqa: F401
            FAIL, OK, WARN, combine_statuses, format_health)
        checks: list[dict] = []
        shards: dict[str, dict] = {}
        stats: dict[str, int] = {}
        for name in self.catalog.shard_names():
            try:
                report = self.catalog.warehouse(name).health(
                    stale_after_s=stale_after_s)
            except DEGRADABLE as exc:
                shards[name] = {"status": "unreachable",
                                "error": str(exc)}
                checks.append({"name": f"shard:{name}", "status": WARN,
                               "detail": f"unreachable — {exc}"})
                continue
            shards[name] = report
            checks.append({
                "name": f"shard:{name}", "status": report["status"],
                "detail": f"{len(report['checks'])} checks, "
                          f"status {report['status']}"})
            for key, value in report["stats"].items():
                stats[key] = stats.get(key, 0) + value
        # replica coverage: a shard that was given replicas promised
        # redundancy; losing every one of them means the next primary
        # fault is unsurvivable, so that is a FAIL, not a warning.
        # Shards without replicas never made the promise and keep the
        # plain unreachable-warns contract above.
        replicas: dict[str, dict[str, str]] = {}
        for name in self.catalog.shard_names():
            specs = self.catalog.replicas(name)
            if not specs:
                continue
            states: dict[str, str] = {}
            for spec in specs:
                try:
                    self.catalog.warehouse(spec.name)
                    states[spec.name] = "ok"
                except ShardUnreachableError as exc:
                    states[spec.name] = f"unreachable — {exc}"
            replicas[name] = states
            up = sum(1 for state in states.values() if state == "ok")
            replica_status = OK if up == len(states) \
                else (WARN if up else FAIL)
            checks.append({
                "name": f"replicas:{name}", "status": replica_status,
                "detail": f"{up}/{len(states)} replica(s) reachable"
                          + ("" if up else " — redundancy lost")})
        # per-backend circuit breakers (lazily created by the executor
        # on first subquery; an open breaker means the backend is being
        # skipped until cooldown — degraded, not broken)
        breakers = self.executor.breaker_states()
        for backend, state in breakers.items():
            if state["state"] == "closed" \
                    and not state["consecutive_failures"]:
                continue
            last = state.get("last_failure_time")
            checks.append({
                "name": f"breaker:{backend}",
                "status": OK if state["state"] != "open" else WARN,
                "detail": f"circuit breaker {state['state']}"
                          + (f", last failure at {last:.0f}"
                             if last else "")
                          + ("" if state["state"] != "open" else
                             " — subqueries skipped until cooldown")})
        unrouted = [name for name in self.catalog.shard_names()
                    if not any(name in route for route in
                               self.catalog.sources().values())]
        checks.append({
            "name": "sources_routed",
            "status": OK if self.catalog.sources() else WARN,
            "detail": f"{len(self.catalog.sources())} source(s) routed"
                      + (f"; idle shards: {', '.join(unrouted)}"
                         if unrouted else "")})
        errors = {}
        for labels, value in self.metrics.counter_items(
                "federation.shard_errors"):
            errors[labels.get("shard", "?")] = int(value)
        checks.append({
            "name": "shard_errors",
            "status": OK if not errors else WARN,
            "detail": "no shard failures recorded" if not errors else
                      ", ".join(f"{shard}: {count}" for shard, count
                                in sorted(errors.items()))})
        # a failing shard fails the federation; unreachable/idle warns
        status = combine_statuses(c["status"] for c in checks)
        return {"status": status, "checks": checks, "stats": stats,
                "shards": shards,
                "federation": {"sources": self.catalog.sources(),
                               "shard_errors": errors,
                               "breakers": breakers,
                               "replicas": replicas}}

    # -- document fetch -------------------------------------------------------

    def find_document(self, doc_id: int,
                      shard: str | None = None) -> Document:
        """The document stored under ``doc_id`` on ``shard``; without
        one, on the first shard in catalog order that holds it. Doc ids
        are per-shard sequences, so the same id can exist on several
        shards — catalog order is deterministic, and callers needing a
        specific shard name it (the service's ``?shard=``). Each shard
        answers through its first healthy backend; unreachable shards
        are skipped. :class:`UnknownDocumentError` when none has it."""
        def find(warehouse):
            return warehouse.find_document(doc_id)

        if shard is not None:
            try:
                return self._on_shard(shard, find)
            except DEGRADABLE:
                raise UnknownDocumentError(
                    f"shard {shard!r} has no reachable backend") from None
        for name in self.catalog.shard_names():
            try:
                return self._on_shard(name, find)
            except (UnknownDocumentError, *DEGRADABLE):
                continue
        raise UnknownDocumentError(f"no document with doc_id {doc_id} "
                                   f"on any reachable shard")

    def fetch_document(self, node) -> Document:
        """Reconstruct the document behind a federated binding (the
        binding knows its shard; a dead primary falls back to the
        shard's replicas, which hold identical documents)."""
        if not isinstance(node, ShardBoundNode):
            raise FederationError(
                "federated document fetch needs a ShardBoundNode "
                "binding from a federated QueryResult")
        return self._on_shard(node.shard,
                              lambda warehouse: warehouse.fetch_document(node))

    def close(self) -> None:
        """Release every catalog-owned shard warehouse."""
        self.catalog.close()

    # -- internals ------------------------------------------------------------

    def _dtd_for_source(self, source: str):
        if source in self.registry:
            return self.registry.create(source, validate=False).dtd
        return None


def _slices(entries: list, parts: int) -> list[list]:
    """Contiguous near-equal slices, earlier parts one longer."""
    base, extra = divmod(len(entries), parts)
    out = []
    start = 0
    for index in range(parts):
        size = base + (1 if index < extra else 0)
        out.append(entries[start:start + size])
        start += size
    return out
