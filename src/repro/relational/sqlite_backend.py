"""SQLite backend — the "standard commercial RDBMS" stand-in.

The paper loads its warehouse into Oracle 9i; the architectural claim
("bring all of the power of relational database systems to bear on the
XML-query problem") only needs *a* mature SQL engine with secondary
indexes and a cost-based planner, which ``sqlite3`` provides without a
server dependency. The backend speaks the same dialect the
XQ2SQL-transformer emits, so it is interchangeable with minidb.

Tuning (see docs/performance.md): the warehouse is rebuildable from
the flat-file sources, so durability pragmas are relaxed
(``synchronous = OFF``), the page cache and temp store are sized for
bulk loads, and a single long-lived cursor rides sqlite3's
prepared-statement cache so the translator's repetitive SQL (chunked
IN-lists, per-table inserts) is compiled once, not per call.

Journaling depends on where the database lives (docs/service.md):

* ``:memory:`` — ``journal_mode = MEMORY``. There is exactly one
  connection (per-thread connections would each see a different empty
  database), so cross-connection concurrency cannot arise and the
  in-memory rollback journal is the cheapest correct choice.
* file-backed — ``journal_mode = WAL`` plus a ``busy_timeout``. The
  query service (and any second process: a CLI ``health`` probe, a
  scraper) opens *additional* connections to the same file; under the
  old rollback journal a committing writer took an exclusive lock that
  turned concurrent readers away with an immediate ``database is
  locked``, and a second writer failed instantly. WAL lets readers
  proceed against their snapshot while one writer appends, and the
  busy timeout makes a second writer wait its turn instead of erroring.

Durability trade-off: WAL with ``synchronous = OFF`` means a power
loss can drop recently committed transactions (the WAL is not fsynced
per commit), which is acceptable here because every release is
re-harvestable from the flat-file sources; the database file itself
stays structurally consistent thanks to WAL's append-then-checkpoint
design.
"""

from __future__ import annotations

import sqlite3
import threading
from itertools import islice
from pathlib import Path
from typing import Iterable

from repro.errors import StorageError
from repro.relational.backend import Params, Row


class SqliteBackend:
    """A :class:`~repro.relational.backend.Backend` over sqlite3.

    The connection is shared across threads behind one re-entrant
    lock: sqlite3's default ``check_same_thread=True`` would abort any
    cross-thread execute with a ``ProgrammingError``, but the
    federation scatter-gather pool (and concurrent readers generally)
    call into one shard backend from worker threads. A guarded shared
    connection keeps ``:memory:`` semantics intact — per-thread
    connections would each see a *different* empty in-memory database —
    and serializes statement execution, which is what sqlite does
    internally anyway.
    """

    name = "sqlite"

    #: rows per underlying ``cursor.executemany`` call — large batches
    #: stream through in chunks instead of being materialized twice
    _EXECUTEMANY_CHUNK = 10_000

    def __init__(self, path: str | Path = ":memory:",
                 cache_kib: int = 65_536,
                 cached_statements: int = 512,
                 busy_timeout_ms: int = 5_000):
        # cached_statements: the stdlib default (128) evicts under the
        # translator's statement mix; 512 keeps every hot statement's
        # compiled form resident (the prepared-statement cache half of
        # the compiled-query cache story).
        self._connection = sqlite3.connect(
            str(path), cached_statements=cached_statements,
            check_same_thread=False)
        self._lock = threading.RLock()
        self._cursor = self._connection.cursor()
        # Bulk-load pragmas: the warehouse is rebuildable from the
        # sources, so relaxed durability is the right trade; the page
        # cache and temp store keep index maintenance off the disk.
        # Journaling splits on locus (module docstring): one-connection
        # in-memory databases take the MEMORY rollback journal,
        # file-backed databases take WAL + busy_timeout so concurrent
        # connections (service threads, CLI probes, a second process)
        # read during writes and queue behind a writer instead of
        # failing with an immediate "database is locked".
        in_memory = str(path) == ":memory:" or "mode=memory" in str(path)
        pragmas = ["PRAGMA synchronous = OFF"]
        if in_memory:
            pragmas.append("PRAGMA journal_mode = MEMORY")
        else:
            pragmas.append("PRAGMA journal_mode = WAL")
            pragmas.append(f"PRAGMA busy_timeout = {int(busy_timeout_ms)}")
        pragmas += [f"PRAGMA cache_size = -{int(cache_kib)}",
                    "PRAGMA temp_store = MEMORY"]
        for pragma in pragmas:
            self._cursor.execute(pragma)

    def execute(self, sql: str, params: Params = ()) -> list[Row]:
        """Run one statement; result rows for queries, [] for DML."""
        with self._lock:
            try:
                cursor = self._cursor.execute(sql, tuple(params))
            except sqlite3.Error as exc:
                raise StorageError(
                    f"sqlite error: {exc}\n  sql: {sql}") from exc
            if cursor.description is None:
                return []
            return cursor.fetchall()

    def executemany(self, sql: str, params_seq: Iterable[Params]) -> int:
        """Run one DML statement per parameter tuple, streaming the
        iterable through fixed-size chunks (multi-million-row batches
        are never double-buffered); returns the tuple count."""
        iterator = iter(params_seq)
        total = 0
        while True:
            chunk = list(islice(iterator, self._EXECUTEMANY_CHUNK))
            if not chunk:
                return total
            with self._lock:
                try:
                    self._cursor.executemany(sql, chunk)
                except sqlite3.Error as exc:
                    raise StorageError(
                        f"sqlite error: {exc}\n  sql: {sql}") from exc
            total += len(chunk)

    def commit(self) -> None:
        """Flush pending writes to the database file."""
        with self._lock:
            self._connection.commit()

    def rollback(self) -> None:
        """Discard every write since the last commit."""
        with self._lock:
            self._connection.rollback()

    def analyze(self) -> None:
        """Refresh planner statistics. Without ANALYZE, sqlite's
        optimizer has no cardinality estimates over the generic schema
        and picks full-scan join orders (measured 100x slower on the
        Figure 11 join)."""
        with self._lock:
            self._cursor.execute("ANALYZE")

    def interrupt(self) -> None:
        """Abort the statement currently running on this connection
        (the aborted ``execute`` raises :class:`StorageError`).

        Deliberately lock-free: the whole point is to break into a
        statement that *holds* the backend lock — a straggler the
        federated executor has already failed over from, or one that
        outlived its deadline. ``sqlite3.Connection.interrupt`` is
        documented thread-safe.
        """
        self._connection.interrupt()

    def close(self) -> None:
        """Close the underlying sqlite connection."""
        with self._lock:
            self._connection.close()

    def explain(self, sql: str, params: Params = ()) -> list[str]:
        """Query-plan lines (the paper's index tuning workflow relied on
        reading the optimizer's plans; we expose the same)."""
        rows = self.execute(f"EXPLAIN QUERY PLAN {sql}", params)
        return [str(row[-1]) for row in rows]
