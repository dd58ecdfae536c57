"""The public facade: :class:`Warehouse` (storage + Data Hounds side)
and :class:`XomatiQ` (the query component).

Typical use::

    from repro import Warehouse
    from repro.synth import build_corpus

    wh = Warehouse()                         # in-memory SQLite
    wh.load_corpus(build_corpus(seed=7))     # ENZYME + EMBL + Swiss-Prot

    result = wh.query('''
        FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
        WHERE contains($a//catalytic_activity, "ketone")
        RETURN $a//enzyme_id, $a//enzyme_description
    ''')
    print(result.to_table())
    print(result.to_xml())

The warehouse hides the relational engine entirely — the paper's
"illusion of a fully XML-based data management system".
"""

from __future__ import annotations

import time

from repro.datahounds.hound import DataHound, LoadReport
from repro.datahounds.registry import SourceRegistry
from repro.errors import UnknownDocumentError
from repro.relational.backend import Backend
from repro.relational.schema import SchemaOptions
from repro.relational.sqlite_backend import SqliteBackend
from repro.results.resultset import BoundNode, QueryResult, ResultRow
from repro.shredding.loader import WarehouseLoader, execute_in_chunks
from repro.shredding.reconstruct import reconstruct_document
from repro.shredding.shredder import DEFAULT_SEQUENCE_TAGS
from repro.translator.cache import CompiledQueryCache
from repro.translator.compile import CompiledQuery, compile_query
from repro.translator.execute import execute_compiled
from repro.xmlkit import Document, DtdTreeNode, serialize
from repro.xquery.ast import Query
from repro.xquery.parser import parse_query
from repro.xquery.semantics import check_query


class Engine:
    """The surface the service and the CLI drive.

    :class:`Warehouse` and :class:`~repro.federation.FederatedXomatiQ`
    answer the same calls — ``query``, ``keyword_search``,
    ``find_document``, ``fetch_document``, ``stats``, ``health``,
    ``harvest``, ``enable_tracing``, ``close`` — and both record into
    ``metrics``, ``events`` and ``tracer``. Whatever depends on which
    engine answers is decided inside that engine, so a front end never
    asks (docs/internals.md, "Engine surface")."""

    #: seconds a caller that refused a partial answer should wait
    #: before retrying; a warehouse never answers partially
    retry_after_s = 1

    def enable_tracing(self, tracer=None, max_spans: int | None = None):
        """Turn span tracing on after construction (idempotent).

        The service layer calls this so any engine it is handed —
        built with ``trace=...`` or not — traces requests. Passing a
        ``tracer`` adopts it (the federation layer shares one tracer
        across every shard this way); otherwise the existing tracer is
        kept or a fresh one allocated. ``max_spans`` bounds retained
        top-level spans for long-running processes. Returns the live
        :class:`repro.obs.Tracer`.

        This is the only place a real tracer replaces the null one
        after construction.
        """
        from repro.obs import Tracer
        if tracer is None:
            tracer = (self.tracer if self.tracer.enabled
                      else Tracer(max_spans=max_spans))
        self.tracer = tracer
        if max_spans is not None:
            tracer.max_spans = max_spans
        tracer.adopt_metrics(self.metrics)
        self._trace_with(tracer)
        return tracer

    def optimizer_stats(self) -> dict | None:
        """The cost-based optimizer's state (the service's ``/stats``
        block); None when plan choice is the relational backend's."""
        return None

    def fetch_document_xml(self, row: ResultRow, variable: str) -> str:
        """Serialized document behind one result row's variable."""
        try:
            node = row.bindings[variable]
        except KeyError:
            raise UnknownDocumentError(
                f"result row has no binding for ${variable}") from None
        return serialize(self.fetch_document(node))


class Warehouse(Engine):
    """A local biological-data warehouse over a relational backend."""

    def __init__(self, backend: Backend | None = None,
                 options: SchemaOptions = SchemaOptions(),
                 registry: SourceRegistry | None = None,
                 sequence_tags: frozenset[str] = DEFAULT_SEQUENCE_TAGS,
                 validate_sources: bool = True,
                 create: bool = True,
                 trace=None,
                 metrics=None,
                 slow_query_ms: float = 250.0,
                 bulk_batch_size: int = 512,
                 query_cache: int = 128):
        """``create=False`` attaches to a backend whose generic schema
        already exists (reopening an on-disk warehouse).

        ``trace`` enables span tracing: pass ``True`` for a fresh
        :class:`repro.obs.Tracer` or an existing tracer instance. The
        backend is then wrapped in an instrumented recorder, pipeline
        stages run inside spans, and every ``QueryResult`` carries its
        trace. The default ``None`` leaves :attr:`tracer` the shared
        :data:`repro.obs.NULL_TRACER`: every layer still opens its
        spans, and the null tracer discards them.

        ``metrics`` controls the **always-on** metrics plane: the
        default ``None`` records into the process-wide registry
        (:func:`repro.obs.default_registry`) — counters, gauges and
        latency histograms across every layer, cheap enough to leave
        on (see docs/observability.md for the measured overhead).
        Pass a :class:`repro.obs.MetricsRegistry` for an isolated
        registry, or ``False`` for :class:`repro.obs.NullMetrics`
        (which also leaves the backend unwrapped when tracing is off).
        Every warehouse additionally keeps a structured
        :class:`repro.obs.EventLog` ring buffer
        (``warehouse.events``) and a slow-query log
        (``warehouse.slow_queries``) that captures query text,
        compiled SQL, row counts, cache hit/miss and EXPLAIN output
        for any query slower than ``slow_query_ms``.

        ``bulk_batch_size`` sets the documents per bulk-session flush
        (bounding a load's buffered rows; a session still commits
        once); ``query_cache`` sizes the compiled-query LRU (0
        disables it). See docs/performance.md.
        """
        from repro.obs import (EventLog, InstrumentedBackend, SlowQueryLog,
                               resolve_metrics, resolve_tracer)
        self.backend = backend if backend is not None else SqliteBackend()
        self.metrics = resolve_metrics(metrics)
        self.events = EventLog()
        self.slow_queries = SlowQueryLog(threshold_ms=slow_query_ms,
                                         events=self.events)
        self.tracer = resolve_tracer(trace)
        # spans feed trace.span_seconds when both are active
        self.tracer.adopt_metrics(self.metrics)
        if self.tracer.enabled or self.metrics.enabled:
            self.backend = InstrumentedBackend(
                self.backend, self.tracer, metrics=self.metrics)
        self.registry = registry or SourceRegistry()
        self.sequence_tags = sequence_tags
        self.validate_sources = validate_sources
        #: warehouse-lifetime trigger hub: every hound from
        #: :meth:`connect` dispatches through it, so standing
        #: subscriptions (``repro.subscriptions``) survive across
        #: hound instances — one-shot ``harvest()`` calls included
        from repro.datahounds.triggers import TriggerHub
        self.triggers = TriggerHub(metrics=self.metrics,
                                   events=self.events)
        #: set by the federation catalog on shard warehouses so slow
        #: queries and spans can say *which* shard they ran on
        self.shard_name = ""
        self.loader = WarehouseLoader(self.backend, options=options,
                                      sequence_tags=sequence_tags,
                                      create=create, tracer=self.tracer,
                                      metrics=self.metrics,
                                      bulk_batch_size=bulk_batch_size)
        self.xomatiq = XomatiQ(self, cache_size=query_cache)

    def _trace_with(self, tracer) -> None:
        from repro.obs import InstrumentedBackend
        if isinstance(self.backend, InstrumentedBackend):
            self.backend.tracer = tracer
        else:
            # metrics were off, so the backend was never wrapped; the
            # loader holds the same backend reference and must follow
            self.backend = InstrumentedBackend(
                self.backend, tracer, metrics=self.metrics)
            self.loader.backend = self.backend
        self.loader.tracer = tracer

    # -- loading ---------------------------------------------------------------

    def load_text(self, source: str, flat_text: str,
                  batch_size: int | None = None) -> int:
        """Transform and load a flat-file release directly (no
        transport layer); returns the number of documents loaded.

        The release is one bulk session, so one transaction: rows are
        flushed one ``executemany`` per table per ``batch_size``
        documents, committed once at the end, and ANALYZE runs after
        the commit when the document count has drifted."""
        from repro.flatfile import parse_entries
        return self.load_entries(source, parse_entries(flat_text),
                                 batch_size=batch_size)

    def load_entries(self, source: str, entries,
                     batch_size: int | None = None) -> int:
        """Transform and load already-parsed flat-file entries through
        the bulk pipeline (the federation layer partitions one release
        into contiguous entry slices and feeds each shard this way)."""
        transformer = self.registry.create(source,
                                           validate=self.validate_sources)
        with self.loader.bulk_session(batch_size=batch_size) as session:
            count = session.add_transformed(
                source, entries,
                lambda entry: (transformer.collection_of(entry),
                               transformer.entry_key(entry),
                               transformer.transform_entry(entry)))
        self.optimize()
        return count

    def optimize(self) -> bool:
        """Refresh planner statistics when the document count has
        drifted (:meth:`WarehouseLoader.optimize
        <repro.shredding.loader.WarehouseLoader.optimize>`)."""
        return self.loader.optimize()

    def load_file(self, source: str, path,
                  batch_size: int | None = None) -> int:
        """Transform and load a flat-file release from disk, streaming
        entry by entry through the bulk-load pipeline (multi-hundred-MB
        dumps never need to be memory-resident — at most one batch of
        shredded rows is buffered).

        The whole file is still one transaction: the write lock and
        the WAL last for the entire load, and writers on other
        connections fail once they have waited ``busy_timeout``."""
        from repro.flatfile import iter_entries
        transformer = self.registry.create(source,
                                           validate=self.validate_sources)
        with open(path, encoding="utf-8") as handle:
            with self.loader.bulk_session(batch_size=batch_size) as session:
                count = session.add_transformed(
                    source, iter_entries(handle),
                    lambda entry: (transformer.collection_of(entry),
                                   transformer.entry_key(entry),
                                   transformer.transform_entry(entry)))
        self.optimize()
        return count

    def load_corpus(self, corpus) -> dict[str, int]:
        """Load a :class:`repro.synth.corpus.Corpus`; returns per-source
        document counts."""
        return {source: self.load_text(source, text)
                for source, text in corpus.texts().items()}

    def connect(self, repository, quarantine: bool = False,
                retries: int | None = None,
                retry_policy=None) -> DataHound:
        """A Data Hound harvesting ``repository`` into this warehouse.

        The hound restores any release snapshots persisted in this
        warehouse, so reconnecting after a process restart resumes
        incremental diffs. ``retries`` (or a full ``retry_policy``)
        wraps the repository in a
        :class:`~repro.datahounds.resilience.ResilientRepository` —
        retry/backoff, payload integrity verification and per-source
        circuit breakers, wired into this warehouse's metrics and
        event log. ``quarantine=True`` skips and reports malformed
        entries instead of aborting the release.
        """
        if retries is not None or retry_policy is not None:
            from repro.datahounds.resilience import ResilientRepository
            from repro.resilience import RetryPolicy
            if retry_policy is None:
                retry_policy = RetryPolicy(max_attempts=max(1, retries))
            repository = ResilientRepository(
                repository, policy=retry_policy,
                metrics=self.metrics, events=self.events)
        return DataHound(repository, self.loader, registry=self.registry,
                         validate=self.validate_sources,
                         quarantine=quarantine,
                         tracer=self.tracer,
                         metrics=self.metrics,
                         events=self.events,
                         triggers=self.triggers)

    def refresh(self, repository, source: str) -> LoadReport:
        """One-shot convenience: hound-load the latest release."""
        return self.connect(repository).load(source)

    def harvest(self, repository, sources=None, quarantine: bool = False,
                retries: int | None = None, fail_fast: bool = False):
        """One-shot convenience: resilient multi-source harvest;
        returns a :class:`~repro.datahounds.hound.HarvestReport`."""
        hound = self.connect(repository, quarantine=quarantine,
                             retries=retries)
        return hound.harvest_all(sources, fail_fast=fail_fast)

    # -- catalog ---------------------------------------------------------------------

    def document_names(self) -> list[str]:
        """Loaded ``source.collection`` addresses."""
        rows = self.backend.execute(
            "SELECT DISTINCT source, collection FROM documents")
        return sorted(f"{source}.{collection}"
                      for source, collection in rows)

    def document_exists(self, source: str,
                        collection: str | None) -> bool:
        """True when documents of ``source[.collection]`` are loaded."""
        if collection is None:
            rows = self.backend.execute(
                "SELECT COUNT(*) FROM documents WHERE source = ?", (source,))
        else:
            rows = self.backend.execute(
                "SELECT COUNT(*) FROM documents WHERE source = ? "
                "AND collection = ?", (source, collection))
        return bool(rows and rows[0][0])

    def remove_source(self, source: str) -> int:
        """Delete every document of one source and its persisted
        snapshot; returns the number of documents removed
        (decommissioning a databank).

        One bulk session, so one transaction: the documents and the
        snapshot row go together or, on failure, not at all. A
        snapshot left behind would make a reconnected hound diff
        against documents that no longer exist and skip re-loading
        them."""
        keys = [row[0] for row in self.backend.execute(
            "SELECT entry_key FROM documents WHERE source = ?", (source,))]
        if not keys:
            return 0
        with self.loader.bulk_session() as session:
            for key in keys:
                session.remove(source, key)
            session.delete_snapshot(source)
        self.metrics.inc("warehouse.documents_removed", len(keys),
                         source=source)
        self.events.emit("warehouse.remove_source", source=source,
                         documents=len(keys))
        return len(keys)

    def stats(self) -> dict[str, int]:
        """Row counts of every generic-schema table plus per-source
        document counts — the warehouse-size report an operator wants
        after a load."""
        from repro.relational.schema import TABLE_NAMES
        out: dict[str, int] = {}
        for table in TABLE_NAMES:
            out[table] = self.backend.execute(
                f"SELECT COUNT(*) FROM {table}")[0][0]
        for source, count in self.backend.execute(
                "SELECT source, COUNT(*) FROM documents GROUP BY source"):
            out[f"documents:{source}"] = count
        return out

    def dtd_tree(self, source: str) -> DtdTreeNode:
        """The DTD structural summary of a source (the query builder's
        left panel)."""
        return self.registry.create(source, validate=False).dtd_tree()

    def keyword_search(self, phrase: str, source: str | None = None,
                       limit: int = 50) -> list[dict]:
        """Web-search-style lookup over the keyword inverted index
        (the service's ``GET /keyword`` resource).

        ``phrase`` is tokenized exactly like a ``contains()`` argument;
        a document qualifies when it contains **every** token.  Returns
        JSON-ready dicts ``{doc_id, source, collection, entry_key,
        matches}`` ordered by total match count (then ``doc_id`` for a
        stable order), capped at ``limit``.

        The per-token lookups and the ranking GROUP BY are portable
        SQL (no HAVING / COUNT(DISTINCT)), so the search runs
        identically on SQLite and minidb; the all-tokens intersection
        happens coordinator-side on the (small) per-token doc-id sets.
        """
        from repro.shredding.keywords import query_tokens
        tokens = sorted(set(query_tokens(phrase)))
        if not tokens or limit < 1:
            return []
        matching: set | None = None
        for token in tokens:
            rows = self.backend.execute(
                "SELECT DISTINCT doc_id FROM keywords WHERE token = ?",
                (token,))
            matching = ({row[0] for row in rows} if matching is None
                        else matching & {row[0] for row in rows})
            if not matching:
                return []
        placeholders = ", ".join("?" for __ in tokens)
        counts = dict(self.backend.execute(
            f"SELECT doc_id, COUNT(*) FROM keywords "
            f"WHERE token IN ({placeholders}) GROUP BY doc_id",
            tuple(tokens)))
        results: list[dict] = []
        for doc_id, doc_source, collection, entry_key in execute_in_chunks(
                self.backend,
                "SELECT doc_id, source, collection, entry_key "
                "FROM documents WHERE doc_id IN ({placeholders})",
                sorted(matching)):
            if source is not None and doc_source != source:
                continue
            results.append({"doc_id": doc_id, "source": doc_source,
                            "collection": collection,
                            "entry_key": entry_key,
                            "matches": int(counts.get(doc_id, 0))})
        results.sort(key=lambda hit: (-hit["matches"], hit["doc_id"]))
        return results[:limit]

    # -- querying -----------------------------------------------------------------------

    def query(self, text: str,
              deadline_s: float | None = None) -> QueryResult:
        """Parse, check, compile and run a XomatiQ query.

        ``deadline_s`` is accepted for the federation's sake: a
        warehouse has no shard to drop, so it always answers whole."""
        return self.xomatiq.query(text)

    def translate(self, text: str) -> CompiledQuery:
        """Parse, check and compile without executing."""
        return self.xomatiq.translate(text)

    def profile(self, text: str, explain: bool = True):
        """Profile one query end to end (works on any warehouse, traced
        or not); returns a :class:`repro.obs.ProfileReport`."""
        from repro.obs import profile_query
        return profile_query(self, text, explain=explain)

    def health(self, stale_after_s: float | None = None) -> dict:
        """Row-count/keyword-index sanity checks plus per-source
        harvest freshness; see :func:`repro.obs.health.health_report`."""
        from repro.obs import health_report
        if stale_after_s is None:
            return health_report(self)
        return health_report(self, stale_after_s=stale_after_s)

    # -- document fetch (the GUI's right panel) --------------------------------------------

    def fetch_document(self, node: BoundNode | int) -> Document:
        """Reconstruct the XML document a result row's binding points
        at."""
        doc_id = node.doc_id if isinstance(node, BoundNode) else node
        return reconstruct_document(self.backend, doc_id)

    def find_document(self, doc_id: int,
                      shard: str | None = None) -> Document:
        """The document stored under ``doc_id`` (``GET
        /documents/{doc_id}``); :class:`UnknownDocumentError` when there
        is none. ``shard`` picks a federation's shard; a warehouse is
        one store and ignores it."""
        if not self.backend.execute(
                "SELECT doc_id FROM documents WHERE doc_id = ?", (doc_id,)):
            raise UnknownDocumentError(f"no document with doc_id {doc_id}")
        return self.fetch_document(doc_id)

    def interrupt(self) -> None:
        """Abort the statement currently running on this warehouse's
        backend, if the backend supports it (sqlite does; minidb has
        nothing long-running to abort). The federated executor uses
        this to cancel stragglers past their deadline or hedge loss."""
        interrupt = getattr(self.backend, "interrupt", None)
        if interrupt is not None:
            interrupt()

    def close(self) -> None:
        """Release the backend (files, connections)."""
        self.backend.close()


class XomatiQ:
    """The query component: parse → check → XQ2SQL → execute → tag.

    Translations are memoized in a :class:`CompiledQueryCache` keyed by
    (query text, backend dialect, sequence_tags) and guarded by the
    loader's catalog-generation counter, so repeated queries skip
    parse/check/compile entirely while any store/remove forces a fresh
    translation (and a fresh semantic check) on the next call.
    """

    def __init__(self, warehouse: Warehouse, cache_size: int = 128):
        self.warehouse = warehouse
        self.cache = (CompiledQueryCache(cache_size,
                                         metrics=warehouse.metrics)
                      if cache_size else None)
        # fused per-query metric handle, resolved once (the backend
        # name is fixed for the warehouse's lifetime) so the per-query
        # cost is a single locked update, not four registry lookups
        self._query_timer = warehouse.metrics.query_timer(
            warehouse.backend.name)

    def parse(self, text: str) -> Query:
        """Parse query text to its AST."""
        return parse_query(text)

    def check(self, query: Query) -> None:
        """Semantic checks against the warehouse catalog and DTDs."""
        check_query(query,
                    document_exists=self.warehouse.document_exists,
                    dtd_for_source=self._dtd_for_source)

    def translate(self, text: str,
                  ast: Query | None = None) -> CompiledQuery:
        """Parse, check and compile; the compiled object exposes every
        SQL statement (the GUI's "Translate Query" view, one level
        deeper). With ``ast`` given, parsing is skipped and ``text`` is
        only documentation (the federation planner hands per-shard
        subquery ASTs straight through)."""
        query = ast if ast is not None else self.parse(text)
        self.check(query)
        return compile_query(query,
                             sequence_tags=self.warehouse.sequence_tags)

    def answer(self, text: str, tracer, root,
               ast: Query | None = None
               ) -> tuple[QueryResult, CompiledQuery, bool]:
        """The pipeline inside an open ``root`` span: translate through
        the compiled-query cache, then execute; returns ``(result,
        compiled, cache hit)``. :meth:`query` runs it with the
        warehouse's tracer, :func:`repro.obs.profile_query` with its
        own.

        ``cache.hit`` / ``cache.miss`` count on ``root``. Parse, check,
        compile and execute each get a span only on a miss: on a hit no
        stage ran, and its SQL statements attach to ``root`` itself,
        which keeps tracing off the cached-query critical path."""
        warehouse = self.warehouse
        cache = self.cache
        if cache is not None:
            generation = warehouse.loader.generation
            dialect = warehouse.backend.name
            tags = warehouse.sequence_tags
            compiled = cache.get(text, dialect, tags, generation)
            if compiled is not None:
                root.count("cache.hit")
                result = execute_compiled(compiled, warehouse.backend)
                root.count("result_rows", len(result))
                return result, compiled, True
            root.count("cache.miss")
        if ast is None:
            with tracer.span("parse"):
                ast = self.parse(text)
        with tracer.span("check"):
            self.check(ast)
        with tracer.span("compile"):
            compiled = compile_query(ast,
                                     sequence_tags=warehouse.sequence_tags)
        if cache is not None:
            cache.put(text, dialect, tags, generation, compiled)
        with tracer.span("execute") as span:
            result = execute_compiled(compiled, warehouse.backend, tracer)
            span.count("result_rows", len(result))
        return result, compiled, False

    def query(self, text: str, ast: Query | None = None) -> QueryResult:
        """The full pipeline: translate (cached) then execute.

        On a traced warehouse every stage runs inside a span and the
        result carries the span tree on ``result.trace`` (``None``
        otherwise). Every query feeds the always-on metrics plane
        (``query.total``, ``query.seconds``, cache hit/miss) and is
        screened by the slow-query log, which captures SQL + EXPLAIN
        for anything over the threshold. ``ast`` short-circuits
        parsing (but still keys the cache by ``text``)."""
        warehouse = self.warehouse
        tracer = warehouse.tracer
        start = time.perf_counter()
        with tracer.span("query", query=text,
                         backend=warehouse.backend.name) as root:
            result, compiled, hit = self.answer(text, tracer, root, ast)
        if tracer.enabled:
            result.trace = root
        duration_s = time.perf_counter() - start
        self._query_timer.record(hit, duration_s, len(result))
        warehouse.slow_queries.record(
            text, warehouse.backend, duration_s * 1000.0, len(result),
            hit, compiled.parameterized_statements,
            shard=warehouse.shard_name, trace_id=root.trace_id)
        return result

    def execute(self, compiled: CompiledQuery) -> QueryResult:
        """Run an already-compiled query (benchmarks separate compile
        and execute cost with this)."""
        return execute_compiled(compiled, self.warehouse.backend,
                                self.warehouse.tracer)

    def _dtd_for_source(self, source: str):
        if source in self.warehouse.registry:
            return self.warehouse.registry.create(source,
                                                  validate=False).dtd
        return None
