"""Load shredded rows into a relational backend.

:class:`WarehouseLoader` is the glue between the Data Hounds (which
hand it validated documents) and the backend (which sees only SQL). It
implements the :class:`~repro.datahounds.hound.DocumentStore` protocol:
``store_document`` is upsert-by-entry (replacing any previous version
of the same ``(source, collection, entry_key)``), ``remove_document``
deletes every row of the entry's document — together they give the
paper's "nothing left out, nothing added twice" update behaviour.

:class:`BulkLoadSession` is the release-scale path: instead of one
transaction per document it accumulates shredded rows across documents
and flushes one ``executemany`` per table per batch, committing once
per batch. The CPU-bound transform+shred work can additionally run in
a worker pool (:meth:`BulkLoadSession.add_transformed`) while inserts
stay ordered on the calling thread, so the backend always sees rows in
doc-id order.
"""

from __future__ import annotations

import json
import re
from contextlib import nullcontext
from time import perf_counter
from typing import Callable, Iterable

from repro.errors import StorageError

from repro.obs.metrics import SIZE_BUCKETS

from repro.relational.backend import Backend
from repro.relational.schema import (
    CREATE_INDEXES,
    INSERT_STATEMENTS,
    TABLE_NAMES,
    SchemaOptions,
    create_schema,
)
from repro.shredding.shredder import (
    DEFAULT_SEQUENCE_TAGS,
    ShreddedDocument,
    shred_document,
)
from repro.xmlkit import Document

#: derived from the schema module so a new generic-schema table can
#: never leak rows on per-entry upsert (same drift class as
#: ``Warehouse.remove_source`` fixed earlier)
_DELETE_BY_DOC = {
    table: f"DELETE FROM {table} WHERE doc_id = ?"
    for table in TABLE_NAMES
}

#: secondary-index names, derived from the schema DDL so deferred index
#: builds can never miss an index added later
_INDEX_NAMES = [
    re.match(r"CREATE INDEX (\w+)", statement).group(1)
    for statement in CREATE_INDEXES
]

#: release-snapshot persistence (crash recovery for the Data Hounds):
#: one row per source holding the loaded release id and the entry
#: fingerprint map as JSON. Deliberately outside TABLE_NAMES — it has
#: no doc_id and must survive per-document delete sweeps. The column
#: is ``release_id`` because ``RELEASE`` is a reserved word in SQLite.
_SNAPSHOT_DDL = ("CREATE TABLE hound_snapshots ("
                 "source TEXT NOT NULL, "
                 "release_id TEXT NOT NULL, "
                 "fingerprints TEXT NOT NULL)")

#: ids per IN-list statement — small enough for every backend's
#: parameter limit, large enough to amortize statement overhead
_IN_CHUNK = 200


def execute_in_chunks(backend, template: str, values,
                      params: tuple = (), chunk: int = _IN_CHUNK) -> list:
    """Run one parameterized IN-list statement per chunk of ``values``.

    ``template`` carries a ``{placeholders}`` slot that each execution
    fills with the chunk's ``?`` markers; ``params`` are prefix
    parameters bound before the chunk (e.g. a ``source = ?`` filter).
    Returns the concatenated rows of every chunk. This is the one
    IN-list idiom in the codebase — the bulk loader's upsert-delete
    and the subscription engine's entry-key lookups both go through
    it, so id lists never end up interpolated into SQL text.
    """
    values = list(values)
    rows: list = []
    for start in range(0, len(values), chunk):
        part = values[start:start + chunk]
        placeholders = ", ".join("?" for __ in part)
        rows.extend(backend.execute(
            template.format(placeholders=placeholders),
            (*params, *part)))
    return rows


class WarehouseLoader:
    """Shreds documents and maintains them in one backend."""

    def __init__(self, backend: Backend,
                 options: SchemaOptions = SchemaOptions(),
                 sequence_tags: frozenset[str] = DEFAULT_SEQUENCE_TAGS,
                 create: bool = True,
                 tracer=None,
                 metrics=None,
                 bulk_batch_size: int = 512,
                 bulk_workers: int = 0):
        self.backend = backend
        self.options = options
        self.sequence_tags = sequence_tags
        #: optional :class:`repro.obs.Tracer`; when set, stores record
        #: per-table row counts and shred/insert split on load spans
        self.tracer = tracer
        #: optional :class:`repro.obs.MetricsRegistry` — the always-on
        #: plane: documents/rows-per-table counters, flush timings,
        #: deferred-index rebuild counts
        self.metrics = metrics
        #: defaults for :meth:`bulk_session`
        self.bulk_batch_size = bulk_batch_size
        self.bulk_workers = bulk_workers
        #: catalog generation — bumped by every store/remove/flush so
        #: compiled-query caches can tell when semantic checks (which
        #: documents exist) and results may have gone stale
        self.generation = 0
        if create:
            create_schema(backend, options)
        self._ensure_snapshot_table()
        self._next_doc_id = self._load_max_doc_id() + 1

    def _load_max_doc_id(self) -> int:
        rows = self.backend.execute("SELECT MAX(doc_id) FROM documents")
        value = rows[0][0] if rows else None
        return value if isinstance(value, int) else 0

    def _ensure_snapshot_table(self) -> None:
        # probe-then-create instead of IF NOT EXISTS: minidb's dialect
        # has no CREATE TABLE IF NOT EXISTS, and warehouses reopened
        # with create=False may predate the snapshot table
        try:
            self.backend.execute("SELECT COUNT(*) FROM hound_snapshots")
        except StorageError:
            self.backend.execute(_SNAPSHOT_DDL)
            self.backend.commit()

    def bump_generation(self) -> None:
        """Note a catalog mutation (store, remove, bulk flush)."""
        self.generation += 1

    # -- DocumentStore protocol -------------------------------------------------

    def store_document(self, source: str, collection: str, entry_key: str,
                       document: Document) -> int:
        """Insert (or replace) one entry's document; returns its doc_id."""
        self._delete_entry(source, entry_key, collection)
        doc_id = self._reserve_doc_id()
        shredded = shred_document(
            document, doc_id, source, collection, entry_key,
            sequence_tags=self.sequence_tags,
            numeric_typing=self.options.numeric_typing)
        self._insert_rows(shredded)
        self.backend.commit()
        self.bump_generation()
        if self.tracer is not None:
            self.tracer.count("documents")
        if self.metrics is not None:
            self.metrics.inc("load.documents", source=source)
        return doc_id

    def remove_document(self, source: str, collection: str,
                        entry_key: str) -> None:
        """Delete one entry's document. An empty ``collection`` matches
        any collection (the hound does not track divisions of removed
        entries)."""
        self._delete_entry(source, entry_key,
                           collection if collection else None)
        self.backend.commit()
        self.bump_generation()

    # -- bulk/lookup helpers ----------------------------------------------------

    def bulk_session(self, batch_size: int | None = None,
                     workers: int | None = None,
                     upsert: bool = True,
                     defer_indexes: bool | None = None) -> "BulkLoadSession":
        """A batched load session (see :class:`BulkLoadSession`).

        ``batch_size``/``workers`` default to the loader's
        ``bulk_batch_size``/``bulk_workers``; ``upsert=False`` skips
        the existing-entry lookup entirely (safe only on a fresh
        source). ``defer_indexes`` drops the secondary indexes for the
        session's lifetime and rebuilds them sorted at the end — the
        default ``None`` enables it automatically for initial loads
        into an empty warehouse, where incremental index maintenance
        is pure overhead."""
        return BulkLoadSession(self, batch_size=batch_size,
                               workers=workers, upsert=upsert,
                               defer_indexes=defer_indexes)

    def store_documents(self, source: str, collection: str,
                        keyed_documents: list[tuple[str, Document]]) -> int:
        """Bulk-load fresh documents (no per-entry delete); returns the
        number loaded. Use only on an empty source."""
        with self.bulk_session(upsert=False) as session:
            for entry_key, document in keyed_documents:
                session.add(source, collection, entry_key, document)
        return session.documents_loaded

    def optimize(self) -> None:
        """Refresh backend planner statistics (no-op for backends
        without an ``analyze`` hook). The hound calls this after each
        release load."""
        analyze = getattr(self.backend, "analyze", None)
        if analyze is not None:
            analyze()

    # -- release-snapshot persistence (hound crash recovery) --------------------

    def save_snapshot(self, source: str, release: str,
                      fingerprints: dict[str, str]) -> None:
        """Persist one source's loaded-release snapshot (replacing any
        previous row). The hound calls this after every successful
        load, so a restarted process resumes incremental diffs."""
        payload = json.dumps(fingerprints, sort_keys=True,
                             separators=(",", ":"))
        self.backend.execute(
            "DELETE FROM hound_snapshots WHERE source = ?", (source,))
        self.backend.execute(
            "INSERT INTO hound_snapshots (source, release_id, fingerprints)"
            " VALUES (?, ?, ?)", (source, release, payload))
        self.backend.commit()

    def load_snapshots(self) -> dict[str, tuple[str, dict[str, str]]]:
        """Every persisted snapshot: source → (release, fingerprint
        map). Restored by :class:`~repro.datahounds.hound.DataHound`
        on construction."""
        rows = self.backend.execute(
            "SELECT source, release_id, fingerprints FROM hound_snapshots")
        return {source: (release, json.loads(payload))
                for source, release, payload in rows}

    def delete_snapshot(self, source: str) -> None:
        """Forget one source's persisted snapshot (decommissioning)."""
        self.backend.execute(
            "DELETE FROM hound_snapshots WHERE source = ?", (source,))
        self.backend.commit()

    def doc_ids(self, source: str, collection: str | None = None) -> list[int]:
        """Stored doc ids of a source (optionally one collection)."""
        if collection is None:
            rows = self.backend.execute(
                "SELECT doc_id FROM documents WHERE source = ? "
                "ORDER BY doc_id", (source,))
        else:
            rows = self.backend.execute(
                "SELECT doc_id FROM documents WHERE source = ? "
                "AND collection = ? ORDER BY doc_id", (source, collection))
        return [row[0] for row in rows]

    def document_count(self, source: str | None = None) -> int:
        """Stored document count (one source or the whole warehouse)."""
        if source is None:
            rows = self.backend.execute("SELECT COUNT(*) FROM documents")
        else:
            rows = self.backend.execute(
                "SELECT COUNT(*) FROM documents WHERE source = ?", (source,))
        return rows[0][0]

    # -- internals -----------------------------------------------------------------

    def _reserve_doc_id(self) -> int:
        doc_id = self._next_doc_id
        self._next_doc_id += 1
        return doc_id

    def _insert_rows(self, shredded: ShreddedDocument) -> None:
        tracer = self.tracer
        metrics = self.metrics
        for table, rows in shredded.rows_by_table().items():
            if rows:
                self.backend.executemany(INSERT_STATEMENTS[table], rows)
                if tracer is not None:
                    tracer.count(f"rows.{table}", len(rows))
                if metrics is not None:
                    metrics.inc("load.rows", len(rows), table=table)

    def _delete_entry(self, source: str, entry_key: str,
                      collection: str | None) -> None:
        if collection is None:
            rows = self.backend.execute(
                "SELECT doc_id FROM documents WHERE source = ? "
                "AND entry_key = ?", (source, entry_key))
        else:
            rows = self.backend.execute(
                "SELECT doc_id FROM documents WHERE source = ? "
                "AND entry_key = ? AND collection = ?",
                (source, entry_key, collection))
        for (doc_id,) in rows:
            for statement in _DELETE_BY_DOC.values():
                self.backend.execute(statement, (doc_id,))


class BulkLoadSession:
    """Batched, optionally parallel document loading.

    Documents added via :meth:`add` (or the worker-pool
    :meth:`add_transformed`) are shredded immediately but their rows
    are buffered; every ``batch_size`` documents the session flushes —
    one batched existing-entry delete (upsert mode), then one
    ``executemany`` per generic-schema table, then a single commit.
    Compared with :meth:`WarehouseLoader.store_document`'s
    seven-statements-plus-commit per document, a flush costs a handful
    of statements per *batch*, which is where release-scale load
    throughput comes from.

    Use as a context manager::

        with loader.bulk_session(batch_size=512) as session:
            for entry in entries:
                session.add(source, collection, key, document)
        # remainder flushed on clean exit; pending rows are discarded
        # if the block raises (complete batches stay committed)

    Upsert semantics match the entry-level contract: any previously
    stored document with the same ``(source, entry_key)`` — in *any*
    collection, mirroring ``remove_document``'s empty-collection
    wildcard — is deleted in the same transaction that inserts the
    replacement. A key added twice in one session keeps the later
    document. ``ANALYZE`` is deliberately deferred: callers run
    :meth:`WarehouseLoader.optimize` once per release, not per batch.

    On initial loads into an empty warehouse (or with
    ``defer_indexes=True``) the secondary indexes are dropped at
    ``__enter__`` and rebuilt sorted at ``__exit__`` — a bulk index
    build over the loaded rows instead of per-row B-tree maintenance.
    The rebuild also runs when the block raises, so committed batches
    always end up indexed.
    """

    #: entry keys per existing-doc lookup / doc ids per DELETE chunk
    #: (well under engine parameter limits)
    _SQL_CHUNK = 200

    def __init__(self, loader: WarehouseLoader,
                 batch_size: int | None = None,
                 workers: int | None = None,
                 upsert: bool = True,
                 defer_indexes: bool | None = None):
        self.loader = loader
        if batch_size is None:
            batch_size = loader.bulk_batch_size
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.batch_size = batch_size
        self.workers = (loader.bulk_workers if workers is None
                        else workers)
        self.upsert = upsert
        self.defer_indexes = defer_indexes
        self._indexes_dropped = False
        #: set in ``__enter__``; on an initially-empty warehouse the
        #: only entries an upsert can collide with are the session's
        #: own earlier flushes, tracked here — lookups shrink to that
        self._warehouse_was_empty = False
        self._flushed_keys: set[tuple[str, str]] = set()
        #: documents added so far (within-batch replacements included)
        self.documents_loaded = 0
        #: completed batch flushes
        self.flushes = 0
        self._pending: list[tuple[tuple[str, str], ShreddedDocument] | None]
        self._pending = []
        self._pending_index: dict[tuple[str, str], int] = {}
        self._live = 0

    # -- adding documents ---------------------------------------------------

    def add(self, source: str, collection: str, entry_key: str,
            document: Document) -> int:
        """Shred and buffer one document; returns its doc_id. Flushes
        automatically when the batch fills."""
        doc_id = self.loader._reserve_doc_id()
        shredded = shred_document(
            document, doc_id, source, collection, entry_key,
            sequence_tags=self.loader.sequence_tags,
            numeric_typing=self.loader.options.numeric_typing)
        self._buffer(source, entry_key, shredded)
        return doc_id

    def add_transformed(self, source: str, items: Iterable,
                        transform: Callable) -> int:
        """Feed the session through ``transform(item) -> (collection,
        entry_key, document)``, shredding included; returns the number
        of documents added.

        With ``workers > 1`` the transform+shred stage (the CPU-bound
        part of a load) runs in a thread pool; results come back in
        input order, so buffering — and therefore every insert the
        backend sees — stays ordered on the calling thread. On a traced
        loader the fan-out runs inside a ``shred_fanout`` span on the
        calling thread, and each worker-side shred span is parented to
        it explicitly (worker threads cannot see the coordinator's
        thread-local span stack), so a bulk load's trace stays one
        connected tree instead of scattering orphan roots.
        """
        before = self.documents_loaded
        job = self._shred_job(source, transform)
        numbered = ((self.loader._reserve_doc_id(), item)
                    for item in items)
        if self.workers and self.workers > 1:
            from concurrent.futures import ThreadPoolExecutor
            tracer = self.loader.tracer
            span_context = (tracer.span("shred_fanout", source=source,
                                        workers=self.workers)
                            if tracer is not None else nullcontext(None))
            with span_context as fanout:
                if tracer is not None:
                    inner_job = job

                    def job(pair, __job=inner_job):
                        with tracer.span("shred", parent=fanout):
                            return __job(pair)

                with ThreadPoolExecutor(max_workers=self.workers) as pool:
                    for entry_key, shredded in pool.map(job, numbered):
                        self._buffer(source, entry_key, shredded)
        else:
            for pair in numbered:
                entry_key, shredded = job(pair)
                self._buffer(source, entry_key, shredded)
        return self.documents_loaded - before

    # -- flushing -----------------------------------------------------------

    def flush(self) -> int:
        """Write out all buffered documents in one transaction; returns
        the number of documents flushed (0 when nothing is pending)."""
        pending = [item for item in self._pending if item is not None]
        if not pending:
            return 0
        tracer = self.loader.tracer
        metrics = self.loader.metrics
        backend = self.loader.backend
        start = perf_counter()
        span_context = (tracer.span("flush", batch=len(pending))
                        if tracer is not None else nullcontext(None))
        with span_context as span:
            if self.upsert:
                keys = [key for key, __ in pending]
                if self._warehouse_was_empty:
                    keys = [key for key in keys
                            if key in self._flushed_keys]
                if keys:
                    self._delete_existing(backend, keys)
                if self._warehouse_was_empty:
                    self._flushed_keys.update(
                        key for key, __ in pending)
            merged: dict[str, list[tuple]] = {
                table: [] for table in TABLE_NAMES}
            for __, shredded in pending:
                for table, rows in shredded.rows_by_table().items():
                    if rows:
                        merged[table].extend(rows)
            for table in TABLE_NAMES:
                rows = merged[table]
                if rows:
                    backend.executemany(INSERT_STATEMENTS[table], rows)
                    if span is not None:
                        span.count(f"rows.{table}", len(rows))
                    if metrics is not None:
                        metrics.inc("load.rows", len(rows), table=table)
            backend.commit()
            if span is not None:
                span.count("documents", len(pending))
        if metrics is not None:
            metrics.inc("load.flushes")
            metrics.inc("load.documents", len(pending))
            metrics.observe("load.flush_seconds", perf_counter() - start)
            metrics.observe("load.batch_documents", len(pending),
                            buckets=SIZE_BUCKETS)
        self.flushes += 1
        self.loader.bump_generation()
        self._pending.clear()
        self._pending_index.clear()
        self._live = 0
        return len(pending)

    def close(self) -> None:
        """Flush the remainder (alias for one final :meth:`flush`)."""
        self.flush()

    def __enter__(self) -> "BulkLoadSession":
        self._warehouse_was_empty = self.loader.document_count() == 0
        defer = self.defer_indexes
        if defer is None:
            # auto: only initial loads into an empty warehouse, where
            # no concurrent reader can miss the indexes mid-session
            defer = self._warehouse_was_empty
        # a bare-table warehouse (SchemaOptions(with_indexes=False)) has
        # no indexes to defer and must not come out of the load with any
        if defer and self.loader.options.with_indexes:
            self._drop_indexes()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.flush()
        else:
            # complete batches stay committed; the partial one is
            # discarded so a failed load never half-writes a batch
            self._pending.clear()
            self._pending_index.clear()
            self._live = 0
        # committed rows must come back indexed even after a failure
        if self._indexes_dropped:
            self._rebuild_indexes()

    # -- internals ----------------------------------------------------------

    def _drop_indexes(self) -> None:
        backend = self.loader.backend
        for name in _INDEX_NAMES:
            backend.execute(f"DROP INDEX IF EXISTS {name}")
        backend.commit()
        self._indexes_dropped = True

    def _rebuild_indexes(self) -> None:
        tracer = self.loader.tracer
        metrics = self.loader.metrics
        backend = self.loader.backend
        start = perf_counter()
        span_context = (tracer.span("index_rebuild")
                        if tracer is not None else nullcontext(None))
        with span_context:
            for statement in CREATE_INDEXES:
                backend.execute(statement)
            backend.commit()
        if metrics is not None:
            metrics.inc("load.index_rebuilds")
            metrics.observe("load.index_rebuild_seconds",
                            perf_counter() - start)
        self._indexes_dropped = False

    def _shred_job(self, source: str, transform: Callable) -> Callable:
        loader = self.loader

        def job(pair):
            doc_id, item = pair
            collection, entry_key, document = transform(item)
            shredded = shred_document(
                document, doc_id, source, collection, entry_key,
                sequence_tags=loader.sequence_tags,
                numeric_typing=loader.options.numeric_typing)
            return entry_key, shredded

        return job

    def _buffer(self, source: str, entry_key: str,
                shredded: ShreddedDocument) -> None:
        key = (source, entry_key)
        if self.upsert:
            earlier = self._pending_index.pop(key, None)
            if earlier is not None:
                self._pending[earlier] = None
                self._live -= 1
            self._pending_index[key] = len(self._pending)
        self._pending.append((key, shredded))
        self._live += 1
        self.documents_loaded += 1
        if self._live >= self.batch_size:
            self.flush()

    def _delete_existing(self, backend: Backend,
                         keys: list[tuple[str, str]]) -> None:
        """Batched upsert delete: one IN-list lookup per chunk of entry
        keys, then one IN-list DELETE per table per chunk of doomed
        doc ids — instead of seven statements per document."""
        by_source: dict[str, list[str]] = {}
        for source, entry_key in keys:
            by_source.setdefault(source, []).append(entry_key)
        doomed: list[int] = []
        for source, entry_keys in by_source.items():
            rows = execute_in_chunks(
                backend,
                "SELECT doc_id FROM documents WHERE source = ? "
                "AND entry_key IN ({placeholders})",
                entry_keys, params=(source,), chunk=self._SQL_CHUNK)
            doomed.extend(row[0] for row in rows)
        if not doomed:
            return
        for table in TABLE_NAMES:
            execute_in_chunks(
                backend,
                f"DELETE FROM {table} WHERE doc_id IN ({{placeholders}})",
                doomed, chunk=self._SQL_CHUNK)
