"""The relational backend protocol.

The paper's stack is *XQuery → SQL → commercial RDBMS*. We keep that
boundary honest: every backend consumes **SQL text** with ``?``
positional parameters (DB-API style) and returns rows as tuples. Two
implementations ship:

* :class:`~repro.relational.sqlite_backend.SqliteBackend` — wraps the
  stdlib ``sqlite3`` (our stand-in for the paper's Oracle 9i),
* :class:`~repro.relational.minidb.backend.MiniDbBackend` — a
  from-scratch pure-Python engine with its own SQL parser, planner and
  executor; it exists so experiments can open the hood (index ablation,
  join-algorithm choice) that a black-box engine hides.

Both accept the same DDL/DML dialect (see
:mod:`repro.relational.schema`), so the whole warehouse is
backend-agnostic.
"""

from __future__ import annotations

from typing import Iterable, Protocol, Sequence

Row = tuple
Params = Sequence


class Backend(Protocol):
    """Minimal DB-API-flavoured surface the warehouse needs."""

    #: short identifier used in benchmark output ("sqlite", "minidb")
    name: str

    def execute(self, sql: str, params: Params = ()) -> list[Row]:
        """Run one statement; returns result rows (empty for DML/DDL)."""

    def executemany(self, sql: str, params_seq: Iterable[Params]) -> int:
        """Run one DML statement for each parameter tuple; returns the
        number of statements executed."""

    def commit(self) -> None:
        """Make prior DML durable (no-op for in-memory engines)."""

    def rollback(self) -> None:
        """Discard DML since the last commit (a failed bulk session's
        rows). Engines without transactions document a no-op."""

    def close(self) -> None:
        """Release resources."""
