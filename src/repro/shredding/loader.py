"""Load shredded rows into a relational backend.

:class:`BulkLoadSession` is the one write path: every row that reaches
the warehouse — a release load, a harvest round, a single upsert, a
source's decommissioning — goes through one session, and one session
is one transaction. It buffers shredded rows across documents, flushes
one ``executemany`` per table per batch (bounding memory, never
committing), and at the end writes the removals and the release
snapshot and commits once. A failure rolls the whole session back.

:class:`WarehouseLoader` owns the backend and hands out sessions. Its
``store_document`` / ``remove_document`` / ``save_snapshot`` are each a
session of one, so together with the Data Hounds they give the paper's
"nothing left out, nothing added twice" update behaviour.
"""

from __future__ import annotations

import json
import re
import threading
from collections import Counter
from time import perf_counter
from typing import Callable, Iterable

from repro.errors import StorageError

from repro.obs.metrics import NULL_METRICS, SIZE_BUCKETS
from repro.obs.trace import NULL_TRACER

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

#: relative change of any one source's ``documents`` row count since
#: the last ANALYZE past which :meth:`WarehouseLoader.optimize`
#: refreshes the planner statistics; smaller moves leave the estimates
#: close enough that the plans do not change
ANALYZE_DRIFT = 0.10

#: ids per IN-list statement — small enough for every backend's
#: parameter limit, large enough to amortize statement overhead
_IN_CHUNK = 200


def execute_in_chunks(backend, template: str, values,
                      params: tuple = ()) -> list:
    """Run one parameterized IN-list statement per ``_IN_CHUNK``
    values.

    ``template`` carries a ``{placeholders}`` slot that each execution
    fills with the chunk's ``?`` markers; ``params`` are prefix
    parameters bound before the chunk (e.g. a ``source = ?`` filter).
    Returns the concatenated rows of every chunk. This is the one
    IN-list idiom in the codebase — the bulk session's deletes and the
    subscription engine's entry-key lookups both go through it, so id
    lists never end up interpolated into SQL text.
    """
    values = list(values)
    rows: list = []
    for start in range(0, len(values), _IN_CHUNK):
        part = values[start:start + _IN_CHUNK]
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
                 tracer=NULL_TRACER,
                 metrics=NULL_METRICS,
                 bulk_batch_size: int = 512):
        self.backend = backend
        self.options = options
        self.sequence_tags = sequence_tags
        #: :class:`repro.obs.Tracer`; sessions record per-table row
        #: counts on their flush spans
        self.tracer = tracer
        #: :class:`repro.obs.MetricsRegistry` — the always-on plane:
        #: documents/rows-per-table counters, flush timings,
        #: deferred-index rebuild counts
        self.metrics = metrics
        #: default documents per flush for :meth:`bulk_session`
        self.bulk_batch_size = bulk_batch_size
        #: catalog generation — bumped once by every session that
        #: stored or removed documents, so compiled-query caches can
        #: tell when semantic checks (which documents exist) and
        #: results may have gone stale
        self.generation = 0
        #: held by each session from ``__enter__`` to its commit or
        #: rollback, so the session is the only writer on a connection
        #: it shares with other threads; any other writer on that
        #: connection (subscription persistence) takes it around its
        #: statements and commit
        self.write_lock = threading.RLock()
        if create:
            create_schema(backend, options)
        self._ensure_snapshot_table()
        #: source → ``documents`` row count, kept by the sessions from
        #: the rows they insert and delete (no statement counts it per
        #: round); :meth:`_sync_documents` also sets ``_next_doc_id``
        self.documents: Counter[str]
        self._sync_documents()
        #: :attr:`documents` at the last ANALYZE of this process; a
        #: reopened warehouse's statistics are not trusted, so its
        #: first optimize with documents present analyzes
        self._analyzed_documents: Counter[str] = Counter()

    def _sync_documents(self) -> None:
        """Re-read the per-source document counts and the next free
        doc id."""
        rows = self.backend.execute(
            "SELECT source, COUNT(*), MAX(doc_id) FROM documents "
            "GROUP BY source")
        self.documents = Counter({source: count
                                  for source, count, __ in rows})
        self._next_doc_id = max((top for __, __, top in rows),
                                default=0) + 1

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
        """Note a catalog mutation (a session that wrote documents)."""
        self.generation += 1

    def bulk_session(self, batch_size: int | None = None
                     ) -> "BulkLoadSession":
        """One write transaction (see :class:`BulkLoadSession`);
        ``batch_size`` defaults to the loader's ``bulk_batch_size``."""
        return BulkLoadSession(self, batch_size=batch_size)

    # -- sessions of one ---------------------------------------------------------

    def store_document(self, source: str, collection: str, entry_key: str,
                       document: Document) -> int:
        """Insert (or replace) one entry's document; returns its doc_id."""
        with self.bulk_session() as session:
            return session.add(source, collection, entry_key, document)

    def remove_document(self, source: str, collection: str,
                        entry_key: str) -> None:
        """Delete one entry's document. ``collection`` is not needed to
        find it: a source stores at most one document per entry key
        (adds replace across collections), so any collection matches."""
        with self.bulk_session() as session:
            session.remove(source, entry_key)

    def save_snapshot(self, source: str, release: str,
                      fingerprints: dict[str, str]) -> None:
        """Persist one source's loaded-release snapshot (replacing any
        previous row). A harvest round saves it inside its own session
        instead, so rows and snapshot always commit together."""
        with self.bulk_session() as session:
            session.save_snapshot(source, release, fingerprints)

    # -- reads ---------------------------------------------------------------------

    def optimize(self) -> bool:
        """Refresh the backend's planner statistics (the paper's query
        plans depended on Oracle's statistics; sqlite needs ANALYZE for
        the same effect) when some source's ``documents`` row count has
        moved by more than :data:`ANALYZE_DRIFT` since the last
        ANALYZE; returns whether it analyzed. A first load into an
        empty warehouse, and the first load of a new source, always
        count as drift. Loads and harvest rounds call this after their
        commit; the ``optimize`` span records ``analyzed`` (0/1) and
        the ``drift`` ratio. It holds :attr:`write_lock`, so the counts
        it reads are committed ones and ANALYZE never runs inside
        another thread's open session on a shared connection."""
        with self.tracer.span("optimize") as span, self.write_lock:
            now, then = self.documents, self._analyzed_documents
            drift = max((abs(now[source] - then[source])
                         / max(then[source], 1)
                         for source in now.keys() | then.keys()),
                        default=0.0)
            analyzed = drift > ANALYZE_DRIFT
            if analyzed:
                analyze = getattr(self.backend, "analyze", None)
                if analyze is not None:
                    analyze()
                self._analyzed_documents = Counter(now)
            span.count("analyzed", int(analyzed))
            span.meta["drift"] = round(drift, 4)
        return analyzed

    def load_snapshots(self) -> dict[str, tuple[str, dict[str, str]]]:
        """Every persisted snapshot: source → (release, fingerprint
        map). Restored by :class:`~repro.datahounds.hound.DataHound`
        on construction."""
        rows = self.backend.execute(
            "SELECT source, release_id, fingerprints FROM hound_snapshots")
        return {source: (release, json.loads(payload))
                for source, release, payload in rows}

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


class BulkLoadSession:
    """One write transaction over the warehouse.

    :meth:`add` shreds a document and buffers its rows, :meth:`remove`
    drops an entry, :meth:`save_snapshot` / :meth:`delete_snapshot`
    stage a source's release-snapshot row. Every ``batch_size``
    documents the session flushes — one batched existing-entry delete,
    then one ``executemany`` per generic-schema table — which bounds
    memory but never commits. A clean exit writes the remaining
    documents, then the removals, then the snapshots, and commits once;
    if the block raises, :meth:`~repro.relational.backend.Backend.rollback`
    leaves the warehouse exactly as it was (minidb has no transactions,
    so there the flushed batches stay). Use as a context manager::

        with loader.bulk_session(batch_size=512) as session:
            for entry in entries:
                session.add(source, collection, key, document)
            session.remove(source, vanished_key)
            session.save_snapshot(source, release, fingerprints)

    A second connection to a file-backed warehouse sees the session's
    changes all at once or not at all. Other threads writing on the
    session's own connection wait on the loader's ``write_lock`` until
    it commits or rolls back, so neither can commit or discard the
    other's statements. Readers on that connection are not isolated:
    they see flushed, uncommitted rows.

    Upsert semantics match the entry-level contract: any previously
    stored document with the same ``(source, entry_key)`` — in *any*
    collection — is deleted in the same transaction that inserts the
    replacement. A key added twice in one session keeps the later
    document; a key removed after it was added is gone, and one added
    after it was removed is stored. ``ANALYZE`` is deliberately left to
    the caller: :meth:`WarehouseLoader.optimize` runs once per release,
    after the commit, and decides from the ``documents`` rows each
    session inserted and deleted per source, which the session adds to
    :attr:`WarehouseLoader.documents` when it commits.

    On an initial load into an empty warehouse the secondary indexes
    are dropped at ``__enter__`` and rebuilt sorted before the commit —
    a bulk index build over the loaded rows instead of per-row B-tree
    maintenance. When the block raises they are rebuilt after the
    rollback, so the warehouse always keeps its full index set.
    """

    def __init__(self, loader: WarehouseLoader,
                 batch_size: int | None = None):
        self.loader = loader
        if batch_size is None:
            batch_size = loader.bulk_batch_size
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.batch_size = batch_size
        self._indexes_dropped = False
        #: set in ``__enter__``; on an initially-empty warehouse the
        #: only entries an upsert can collide with are the session's
        #: own earlier flushes, tracked here — lookups shrink to that
        self._warehouse_was_empty = False
        self._flushed_keys: set[tuple[str, str]] = set()
        #: documents added so far (within-batch replacements included)
        self.documents_loaded = 0
        #: source → ``documents`` rows written less rows deleted
        self._tally: Counter[str] = Counter()
        #: batch flushes written (none of them committed on its own)
        self.flushes = 0
        self._pending: list[tuple[tuple[str, str], ShreddedDocument] | None]
        self._pending = []
        self._pending_index: dict[tuple[str, str], int] = {}
        self._live = 0
        self._removed: set[tuple[str, str]] = set()
        #: source → (release, fingerprint JSON) to write, or None to
        #: delete the source's row
        self._snapshots: dict[str, tuple[str, str] | None] = {}

    # -- staging ------------------------------------------------------------

    def add(self, source: str, collection: str, entry_key: str,
            document: Document) -> int:
        """Shred and buffer one document; returns its doc_id. Flushes
        automatically when the batch fills."""
        doc_id = self.loader._reserve_doc_id()
        shredded = shred_document(
            document, doc_id, source, collection, entry_key,
            sequence_tags=self.loader.sequence_tags,
            numeric_typing=self.loader.options.numeric_typing)
        key = (source, entry_key)
        self._removed.discard(key)
        self._drop_pending(key)
        self._pending_index[key] = len(self._pending)
        self._pending.append((key, shredded))
        self._live += 1
        self.documents_loaded += 1
        if self._live >= self.batch_size:
            self.flush()
        return doc_id

    def add_transformed(self, source: str, items: Iterable,
                        transform: Callable) -> int:
        """:meth:`add` every ``transform(item) -> (collection,
        entry_key, document)``; returns the number of documents added."""
        before = self.documents_loaded
        for item in items:
            self.add(source, *transform(item))
        return self.documents_loaded - before

    def remove(self, source: str, entry_key: str) -> None:
        """Delete one entry's document, in whatever collection it is
        stored, when the session commits."""
        key = (source, entry_key)
        self._drop_pending(key)
        self._removed.add(key)

    def save_snapshot(self, source: str, release: str,
                      fingerprints: dict[str, str]) -> None:
        """Replace one source's persisted release snapshot at commit
        (the hound's crash-recovery state: a restarted process resumes
        incremental diffs from it)."""
        self._snapshots[source] = (release, json.dumps(
            fingerprints, sort_keys=True, separators=(",", ":")))

    def delete_snapshot(self, source: str) -> None:
        """Forget one source's persisted snapshot at commit."""
        self._snapshots[source] = None

    # -- writing ------------------------------------------------------------

    def flush(self) -> int:
        """Write out all buffered documents (uncommitted); returns the
        number of documents flushed (0 when nothing is pending)."""
        pending = [item for item in self._pending if item is not None]
        if not pending:
            return 0
        tracer = self.loader.tracer
        metrics = self.loader.metrics
        backend = self.loader.backend
        start = perf_counter()
        with tracer.span("flush", batch=len(pending)) as span:
            keys = [key for key, __ in pending]
            if self._warehouse_was_empty:
                flushed = self._flushed_keys
                self._delete_existing([key for key in keys if key in flushed])
                flushed.update(keys)
            else:
                self._delete_existing(keys)
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
                    span.count(f"rows.{table}", len(rows))
                    metrics.inc("load.rows", len(rows), table=table)
            span.count("documents", len(pending))
        metrics.inc("load.flushes")
        for source, count in Counter(key[0] for key, __ in pending).items():
            self._tally[source] += count
            metrics.inc("load.documents", count, source=source)
        metrics.observe("load.flush_seconds", perf_counter() - start)
        metrics.observe("load.batch_documents", len(pending),
                        buckets=SIZE_BUCKETS)
        self.flushes += 1
        self._clear_pending()
        return len(pending)

    def __enter__(self) -> "BulkLoadSession":
        self.loader.write_lock.acquire()
        try:
            self._warehouse_was_empty = not self.loader.backend.execute(
                "SELECT doc_id FROM documents LIMIT 1")
            # a bare-table warehouse (SchemaOptions(with_indexes=False))
            # has no indexes to defer and must not come out of the load
            # with any
            if self._warehouse_was_empty and \
                    self.loader.options.with_indexes:
                self._drop_indexes()
        except BaseException:
            self.loader.write_lock.release()
            raise
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            if exc_type is not None:
                self._rollback()
                return
            try:
                self.flush()
                self._delete_existing(sorted(self._removed))
                self._write_snapshots()
                if self._indexes_dropped:
                    self._rebuild_indexes()
                self.loader.backend.commit()
            except BaseException:
                self._rollback()
                raise
            self.loader.documents.update(self._tally)
            self._finish()
        finally:
            self.loader.write_lock.release()

    # -- internals ----------------------------------------------------------

    def _rollback(self) -> None:
        self._clear_pending()
        loader = self.loader
        loader.backend.rollback()
        # the rollback drops the session's rows, so the doc ids it
        # reserved are free again (minidb keeps its flushed batches)
        loader._sync_documents()
        if self._indexes_dropped:
            # the drops ran before the transaction began, so they
            # survive the rollback and the index set must come back
            self._rebuild_indexes()
        self._finish()

    def _finish(self) -> None:
        if self.documents_loaded or self._removed:
            self.loader.bump_generation()

    def _drop_pending(self, key: tuple[str, str]) -> None:
        earlier = self._pending_index.pop(key, None)
        if earlier is not None:
            self._pending[earlier] = None
            self._live -= 1

    def _clear_pending(self) -> None:
        self._pending.clear()
        self._pending_index.clear()
        self._live = 0

    def _write_snapshots(self) -> None:
        backend = self.loader.backend
        for source, snapshot in self._snapshots.items():
            backend.execute(
                "DELETE FROM hound_snapshots WHERE source = ?", (source,))
            if snapshot is not None:
                backend.execute(
                    "INSERT INTO hound_snapshots "
                    "(source, release_id, fingerprints) VALUES (?, ?, ?)",
                    (source, *snapshot))

    def _drop_indexes(self) -> None:
        backend = self.loader.backend
        for name in _INDEX_NAMES:
            backend.execute(f"DROP INDEX IF EXISTS {name}")
        self._indexes_dropped = True

    def _rebuild_indexes(self) -> None:
        tracer = self.loader.tracer
        metrics = self.loader.metrics
        backend = self.loader.backend
        start = perf_counter()
        with tracer.span("index_rebuild"):
            # drop first: after a failed commit, sqlite has rolled an
            # earlier rebuild back but minidb has kept it
            for name, statement in zip(_INDEX_NAMES, CREATE_INDEXES):
                backend.execute(f"DROP INDEX IF EXISTS {name}")
                backend.execute(statement)
        metrics.inc("load.index_rebuilds")
        metrics.observe("load.index_rebuild_seconds",
                        perf_counter() - start)

    def _delete_existing(self, keys: list[tuple[str, str]]) -> None:
        """Batched entry delete: one IN-list lookup per chunk of entry
        keys, then one IN-list DELETE per table per chunk of doomed
        doc ids — instead of seven statements per document."""
        if not keys:
            return
        backend = self.loader.backend
        by_source: dict[str, list[str]] = {}
        for source, entry_key in keys:
            by_source.setdefault(source, []).append(entry_key)
        doomed: list[int] = []
        for source, entry_keys in by_source.items():
            rows = execute_in_chunks(
                backend,
                "SELECT doc_id FROM documents WHERE source = ? "
                "AND entry_key IN ({placeholders})",
                entry_keys, params=(source,))
            doomed.extend(row[0] for row in rows)
            self._tally[source] -= len(rows)
        for table in TABLE_NAMES:
            execute_in_chunks(
                backend,
                f"DELETE FROM {table} WHERE doc_id IN ({{placeholders}})",
                doomed)
