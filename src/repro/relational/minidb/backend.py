"""minidb backend: the SQL entry point over catalog + executor."""

from __future__ import annotations

from typing import Iterable

from repro.errors import SchemaError
from repro.relational.backend import Params, Row
from repro.relational.minidb.executor import Plan, execute_select
from repro.relational.minidb.expr import ColumnEnv, Literal, Param
from repro.relational.minidb.sql import (
    CreateIndex,
    CreateTable,
    Delete,
    DropIndex,
    DropTable,
    Insert,
    Select,
    parse_sql,
)
from repro.relational.minidb.table import Catalog


class MiniDbBackend:
    """A :class:`~repro.relational.backend.Backend` implemented from
    scratch in Python.

    Parsed statements are cached by SQL text, so repeated
    ``executemany`` loads and benchmark loops pay the parse cost once.
    The last SELECT's plan is kept on :attr:`last_plan` for inspection
    (experiment E6 reads it the way the paper's authors read Oracle's
    query plans).
    """

    name = "minidb"

    def __init__(self):
        self.catalog = Catalog()
        self.last_plan: Plan | None = None
        self._statement_cache: dict[str, object] = {}

    # -- Backend protocol ----------------------------------------------------

    def execute(self, sql: str, params: Params = ()) -> list[Row]:
        """Parse (cached) and run one statement."""
        statement = self._parse(sql)
        return self._dispatch(statement, tuple(params))

    def executemany(self, sql: str, params_seq: Iterable[Params]) -> int:
        """Run one DML statement per parameter tuple."""
        statement = self._parse(sql)
        count = 0
        for params in params_seq:
            self._dispatch(statement, tuple(params))
            count += 1
        return count

    def commit(self) -> None:
        """In-memory engine: nothing to flush."""

    def rollback(self) -> None:
        """No-op: minidb is non-atomic, every statement applies as it
        runs. It is the oracle engine, not a product back end, so a
        failed bulk session keeps the batches it already flushed."""

    def analyze(self) -> None:
        """Statistics hook for parity with SqliteBackend; minidb reads
        live table sizes directly, so there is nothing to refresh."""

    def close(self) -> None:
        """Drop all in-memory state."""
        self.catalog = Catalog()
        self._statement_cache.clear()

    def explain(self, sql: str, params: Params = ()) -> list[str]:
        """Run the query and return the executor's plan notes."""
        statement = self._parse(sql)
        if not isinstance(statement, Select):
            return []
        __, plan = execute_select(self.catalog, statement, tuple(params))
        return list(plan.steps)

    # -- dispatch ---------------------------------------------------------------

    def _parse(self, sql: str):
        statement = self._statement_cache.get(sql)
        if statement is None:
            statement = parse_sql(sql)
            self._statement_cache[sql] = statement
        return statement

    def _dispatch(self, statement, params: tuple) -> list[Row]:
        if isinstance(statement, Select):
            rows, plan = execute_select(self.catalog, statement, params)
            self.last_plan = plan
            return rows
        if isinstance(statement, Insert):
            self._insert(statement, params)
            return []
        if isinstance(statement, Delete):
            self._delete(statement, params)
            return []
        if isinstance(statement, CreateTable):
            self.catalog.create_table(statement.table, statement.columns)
            return []
        if isinstance(statement, CreateIndex):
            self.catalog.create_index(statement.index, statement.table,
                                      statement.columns, statement.unique)
            return []
        if isinstance(statement, DropTable):
            self.catalog.drop_table(statement.table, statement.if_exists)
            return []
        if isinstance(statement, DropIndex):
            self.catalog.drop_index(statement.index, statement.if_exists)
            return []
        raise SchemaError(f"unsupported statement {type(statement).__name__}")

    def _insert(self, statement: Insert, params: tuple) -> None:
        table = self.catalog.table(statement.table)
        values_by_column: dict[str, object] = {}
        for column, expr in zip(statement.columns, statement.values):
            if isinstance(expr, Param):
                values_by_column[column] = params[expr.index]
            elif isinstance(expr, Literal):
                values_by_column[column] = expr.value
            else:
                raise SchemaError(
                    "INSERT values must be literals or ? parameters")
        row = []
        for column in table.columns:
            if column.name not in values_by_column:
                raise SchemaError(
                    f"INSERT into {table.name} missing column {column.name} "
                    f"(all columns are required)")
            row.append(values_by_column[column.name])
        table.insert(row)

    def _delete(self, statement: Delete, params: tuple) -> None:
        table = self.catalog.table(statement.table)
        if statement.where is None:
            table.delete_where(lambda row: True)
            return
        env = ColumnEnv()
        for offset, column in enumerate(table.columns):
            env.add(table.name, column.name, offset)
        predicate = statement.where.compile(env)
        table.delete_where(lambda row: predicate(row, params))
