"""SQL lexer and parser for minidb.

Covers the dialect the warehouse uses — DDL
(``CREATE TABLE/INDEX``, ``DROP``), DML (``INSERT``, ``DELETE``) and
queries (``SELECT`` with inner and trailing ``LEFT [OUTER]`` joins,
WHERE, GROUP BY, ORDER BY, LIMIT, DISTINCT, aggregates) — with ``?`` positional parameters. It is the
same surface the SQLite backend consumes, so one SQL string from the
XQ2SQL-transformer runs on either engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.errors import SchemaError
from repro.relational.minidb.expr import (
    AGGREGATE_NAMES,
    Aggregate,
    And,
    Arithmetic,
    ColumnRef,
    Comparison,
    Expr,
    FuncCall,
    InList,
    IsNull,
    Like,
    Literal,
    Not,
    Or,
    Param,
)

# --------------------------------------------------------------------------
# Lexer
# --------------------------------------------------------------------------

_SYMBOLS = ("<=", ">=", "!=", "<>", "(", ")", ",", ".", "=", "<", ">",
            "+", "-", "*", "/", "?", ";")

_KEYWORDS = {
    "select", "distinct", "from", "join", "inner", "left", "outer", "on",
    "where",
    "and", "or", "not", "in", "is", "null", "like", "group", "order", "by",
    "asc", "desc", "limit", "as", "create", "table", "index", "unique",
    "drop", "if", "exists", "insert", "into", "values", "delete",
    "primary", "key", "integer", "text", "real",
}


@dataclass(frozen=True)
class Token:
    """One lexical token with its source offset."""

    kind: str      # "ident", "keyword", "number", "string", "symbol", "end"
    value: str
    position: int


def tokenize(sql: str) -> list[Token]:
    """Tokenize one SQL statement (appends an ``end`` sentinel)."""
    tokens: list[Token] = []
    pos = 0
    length = len(sql)
    while pos < length:
        ch = sql[pos]
        if ch in " \t\r\n":
            pos += 1
            continue
        if ch == "-" and sql.startswith("--", pos):
            newline = sql.find("\n", pos)
            pos = length if newline < 0 else newline + 1
            continue
        if ch == "'":
            end = pos + 1
            parts: list[str] = []
            while True:
                quote = sql.find("'", end)
                if quote < 0:
                    raise SchemaError(f"unterminated string at offset {pos}")
                if sql.startswith("''", quote):
                    parts.append(sql[end:quote] + "'")
                    end = quote + 2
                    continue
                parts.append(sql[end:quote])
                break
            tokens.append(Token("string", "".join(parts), pos))
            pos = quote + 1
            continue
        if ch.isdigit() or (ch == "." and pos + 1 < length
                            and sql[pos + 1].isdigit()):
            end = pos
            seen_dot = False
            while end < length and (sql[end].isdigit()
                                    or (sql[end] == "." and not seen_dot)):
                if sql[end] == ".":
                    seen_dot = True
                end += 1
            tokens.append(Token("number", sql[pos:end], pos))
            pos = end
            continue
        if ch.isalpha() or ch == "_" or ch == '"':
            if ch == '"':
                quote = sql.find('"', pos + 1)
                if quote < 0:
                    raise SchemaError(
                        f"unterminated quoted identifier at offset {pos}")
                tokens.append(Token("ident", sql[pos + 1:quote], pos))
                pos = quote + 1
                continue
            end = pos
            while end < length and (sql[end].isalnum() or sql[end] == "_"):
                end += 1
            word = sql[pos:end]
            kind = "keyword" if word.lower() in _KEYWORDS else "ident"
            tokens.append(Token(kind, word, pos))
            pos = end
            continue
        matched = False
        for symbol in _SYMBOLS:
            if sql.startswith(symbol, pos):
                tokens.append(Token("symbol", symbol, pos))
                pos += len(symbol)
                matched = True
                break
        if not matched:
            raise SchemaError(f"unexpected character {ch!r} at offset {pos}")
    tokens.append(Token("end", "", length))
    return tokens


# --------------------------------------------------------------------------
# Statement AST
# --------------------------------------------------------------------------


@dataclass
class ColumnDef:
    """One column of a CREATE TABLE."""

    name: str
    type_name: str
    primary_key: bool = False
    not_null: bool = False


@dataclass
class CreateTable:
    """``CREATE TABLE name (columns...)``."""

    table: str
    columns: list[ColumnDef]


@dataclass
class CreateIndex:
    """``CREATE [UNIQUE] INDEX name ON table (columns)``."""

    index: str
    table: str
    columns: list[str]
    unique: bool = False


@dataclass
class DropTable:
    """``DROP TABLE [IF EXISTS] name``."""

    table: str
    if_exists: bool = False


@dataclass
class DropIndex:
    """``DROP INDEX [IF EXISTS] name``."""

    index: str
    if_exists: bool = False


@dataclass
class Insert:
    """``INSERT INTO table (columns) VALUES (...)``."""

    table: str
    columns: list[str]
    values: list[Expr]


@dataclass
class Delete:
    """``DELETE FROM table [WHERE ...]``."""

    table: str
    where: Expr | None = None


@dataclass
class TableRef:
    """A table in FROM, with its alias."""

    table: str
    alias: str


@dataclass
class Join:
    """``[INNER | LEFT [OUTER]] JOIN table alias ON condition``."""

    ref: TableRef
    on: Expr
    outer: bool = False


@dataclass
class SelectItem:
    """One projection item (or ``*``)."""

    expr: Expr
    alias: str | None = None
    star: bool = False


@dataclass
class OrderItem:
    """One ORDER BY key with direction."""

    expr: Expr
    ascending: bool = True


@dataclass
class Select:
    """A full SELECT statement."""

    items: list[SelectItem]
    base: TableRef | None = None
    joins: list[Join] = field(default_factory=list)
    cross: list[TableRef] = field(default_factory=list)
    where: Expr | None = None
    group_by: list[Expr] = field(default_factory=list)
    order_by: list[OrderItem] = field(default_factory=list)
    limit: int | None = None
    distinct: bool = False

    def table_refs(self) -> list[TableRef]:
        """Every referenced table, FROM order (base, cross, joins)."""
        refs = [self.base] if self.base else []
        refs.extend(self.cross)
        refs.extend(join.ref for join in self.joins)
        return refs


Statement = Any  # union of the dataclasses above


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------


def parse_sql(sql: str) -> Statement:
    """Parse one SQL statement."""
    parser = _Parser(tokenize(sql), sql)
    statement = parser.parse_statement()
    parser.expect_end()
    return statement


class _Parser:
    def __init__(self, tokens: list[Token], sql: str):
        self.tokens = tokens
        self.sql = sql
        self.pos = 0
        self.param_count = 0

    # -- token helpers -----------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def accept_keyword(self, *words: str) -> bool:
        token = self.peek()
        if token.kind == "keyword" and token.value.lower() in words:
            self.pos += 1
            return True
        return False

    def expect_keyword(self, word: str) -> None:
        if not self.accept_keyword(word):
            self.error(f"expected {word.upper()}")

    def accept_symbol(self, symbol: str) -> bool:
        token = self.peek()
        if token.kind == "symbol" and token.value == symbol:
            self.pos += 1
            return True
        return False

    def expect_symbol(self, symbol: str) -> None:
        if not self.accept_symbol(symbol):
            self.error(f"expected {symbol!r}")

    def expect_name(self) -> str:
        token = self.peek()
        if token.kind in ("ident", "keyword"):
            self.pos += 1
            return token.value
        self.error("expected a name")

    def expect_end(self) -> None:
        self.accept_symbol(";")
        if self.peek().kind != "end":
            self.error("trailing tokens")

    def error(self, message: str):
        token = self.peek()
        raise SchemaError(
            f"SQL parse error: {message} near "
            f"{token.value!r} (offset {token.position})\n  sql: {self.sql}")

    # -- statements -----------------------------------------------------------

    def parse_statement(self) -> Statement:
        if self.accept_keyword("select"):
            return self.parse_select()
        if self.accept_keyword("create"):
            if self.accept_keyword("table"):
                return self.parse_create_table()
            unique = self.accept_keyword("unique")
            self.expect_keyword("index")
            return self.parse_create_index(unique)
        if self.accept_keyword("drop"):
            if self.accept_keyword("table"):
                if_exists = self._accept_if_exists()
                return DropTable(self.expect_name(), if_exists)
            self.expect_keyword("index")
            if_exists = self._accept_if_exists()
            return DropIndex(self.expect_name(), if_exists)
        if self.accept_keyword("insert"):
            self.expect_keyword("into")
            return self.parse_insert()
        if self.accept_keyword("delete"):
            self.expect_keyword("from")
            return self.parse_delete()
        self.error("expected a statement")

    def _accept_if_exists(self) -> bool:
        if self.accept_keyword("if"):
            self.expect_keyword("exists")
            return True
        return False

    def parse_create_table(self) -> CreateTable:
        table = self.expect_name()
        self.expect_symbol("(")
        columns: list[ColumnDef] = []
        while True:
            name = self.expect_name()
            token = self.peek()
            if token.kind == "keyword" and token.value.lower() in (
                    "integer", "text", "real"):
                type_name = token.value.upper()
                self.pos += 1
            else:
                type_name = "TEXT"
            column = ColumnDef(name, type_name)
            while True:
                if self.accept_keyword("primary"):
                    self.expect_keyword("key")
                    column.primary_key = True
                elif self.accept_keyword("not"):
                    self.expect_keyword("null")
                    column.not_null = True
                else:
                    break
            columns.append(column)
            if self.accept_symbol(","):
                continue
            self.expect_symbol(")")
            break
        return CreateTable(table, columns)

    def parse_create_index(self, unique: bool) -> CreateIndex:
        index = self.expect_name()
        self.expect_keyword("on")
        table = self.expect_name()
        self.expect_symbol("(")
        columns = [self.expect_name()]
        while self.accept_symbol(","):
            columns.append(self.expect_name())
        self.expect_symbol(")")
        return CreateIndex(index, table, columns, unique)

    def parse_insert(self) -> Insert:
        table = self.expect_name()
        self.expect_symbol("(")
        columns = [self.expect_name()]
        while self.accept_symbol(","):
            columns.append(self.expect_name())
        self.expect_symbol(")")
        self.expect_keyword("values")
        self.expect_symbol("(")
        values = [self.parse_expr()]
        while self.accept_symbol(","):
            values.append(self.parse_expr())
        self.expect_symbol(")")
        if len(values) != len(columns):
            self.error(f"{len(columns)} columns but {len(values)} values")
        return Insert(table, columns, values)

    def parse_delete(self) -> Delete:
        table = self.expect_name()
        where = None
        if self.accept_keyword("where"):
            where = self.parse_expr()
        return Delete(table, where)

    def parse_select(self) -> Select:
        select = Select(items=[])
        select.distinct = self.accept_keyword("distinct")
        select.items.append(self.parse_select_item())
        while self.accept_symbol(","):
            select.items.append(self.parse_select_item())
        self.expect_keyword("from")
        select.base = self.parse_table_ref()
        outer_seen = False
        while True:
            # FROM is evaluated left to right; keeping every LEFT JOIN
            # last lets the executor order the inner tables freely
            if self.accept_symbol(","):
                if outer_seen:
                    self.error("only LEFT JOIN may follow a LEFT JOIN")
                select.cross.append(self.parse_table_ref())
                continue
            inner = self.accept_keyword("inner")
            outer = not inner and self.accept_keyword("left")
            if outer:
                self.accept_keyword("outer")
            if self.accept_keyword("join"):
                if outer_seen and not outer:
                    self.error("only LEFT JOIN may follow a LEFT JOIN")
                outer_seen = outer
                ref = self.parse_table_ref()
                self.expect_keyword("on")
                select.joins.append(Join(ref, self.parse_expr(), outer))
                continue
            if inner or outer:
                self.error("expected JOIN")
            break
        if self.accept_keyword("where"):
            select.where = self.parse_expr()
        if self.accept_keyword("group"):
            self.expect_keyword("by")
            select.group_by.append(self.parse_expr())
            while self.accept_symbol(","):
                select.group_by.append(self.parse_expr())
        if self.accept_keyword("order"):
            self.expect_keyword("by")
            select.order_by.append(self.parse_order_item())
            while self.accept_symbol(","):
                select.order_by.append(self.parse_order_item())
        if self.accept_keyword("limit"):
            token = self.peek()
            if token.kind != "number":
                self.error("LIMIT expects a number")
            self.pos += 1
            select.limit = int(token.value)
        return select

    def parse_select_item(self) -> SelectItem:
        if self.accept_symbol("*"):
            return SelectItem(expr=Literal(None), star=True)
        expr = self.parse_expr()
        alias = None
        if self.accept_keyword("as"):
            alias = self.expect_name()
        elif self.peek().kind == "ident":
            alias = self.advance().value
        return SelectItem(expr=expr, alias=alias)

    def parse_table_ref(self) -> TableRef:
        table = self.expect_name()
        alias = table
        if self.accept_keyword("as"):
            alias = self.expect_name()
        elif self.peek().kind == "ident":
            alias = self.advance().value
        return TableRef(table, alias)

    def parse_order_item(self) -> OrderItem:
        expr = self.parse_expr()
        ascending = True
        if self.accept_keyword("desc"):
            ascending = False
        else:
            self.accept_keyword("asc")
        return OrderItem(expr, ascending)

    # -- expressions -------------------------------------------------------------

    def parse_expr(self) -> Expr:
        return self.parse_or()

    def parse_or(self) -> Expr:
        left = self.parse_and()
        items = [left]
        while self.accept_keyword("or"):
            items.append(self.parse_and())
        return items[0] if len(items) == 1 else Or(items)

    def parse_and(self) -> Expr:
        left = self.parse_not()
        items = [left]
        while self.accept_keyword("and"):
            items.append(self.parse_not())
        return items[0] if len(items) == 1 else And(items)

    def parse_not(self) -> Expr:
        if self.accept_keyword("not"):
            return Not(self.parse_not())
        return self.parse_predicate()

    def parse_predicate(self) -> Expr:
        left = self.parse_additive()
        token = self.peek()
        if token.kind == "symbol" and token.value in (
                "=", "!=", "<>", "<", "<=", ">", ">="):
            self.pos += 1
            op = "!=" if token.value == "<>" else token.value
            return Comparison(op, left, self.parse_additive())
        if self.accept_keyword("is"):
            negate = self.accept_keyword("not")
            self.expect_keyword("null")
            return IsNull(left, negate)
        negate = self.accept_keyword("not")
        if self.accept_keyword("like"):
            return Like(left, self.parse_additive(), negate)
        if self.accept_keyword("in"):
            self.expect_symbol("(")
            options = [self.parse_expr()]
            while self.accept_symbol(","):
                options.append(self.parse_expr())
            self.expect_symbol(")")
            return InList(left, options, negate)
        if negate:
            self.error("expected LIKE or IN after NOT")
        return left

    def parse_additive(self) -> Expr:
        left = self.parse_multiplicative()
        while True:
            token = self.peek()
            if token.kind == "symbol" and token.value in ("+", "-"):
                self.pos += 1
                left = Arithmetic(token.value, left,
                                  self.parse_multiplicative())
            else:
                return left

    def parse_multiplicative(self) -> Expr:
        left = self.parse_unary()
        while True:
            token = self.peek()
            if token.kind == "symbol" and token.value in ("*", "/"):
                self.pos += 1
                left = Arithmetic(token.value, left, self.parse_unary())
            else:
                return left

    def parse_unary(self) -> Expr:
        if self.accept_symbol("-"):
            return Arithmetic("-", Literal(0), self.parse_unary())
        return self.parse_primary()

    def parse_primary(self) -> Expr:
        token = self.peek()
        if token.kind == "symbol" and token.value == "?":
            self.pos += 1
            param = Param(self.param_count)
            self.param_count += 1
            return param
        if token.kind == "number":
            self.pos += 1
            text = token.value
            return Literal(float(text) if "." in text else int(text))
        if token.kind == "string":
            self.pos += 1
            return Literal(token.value)
        if token.kind == "symbol" and token.value == "(":
            self.pos += 1
            expr = self.parse_expr()
            self.expect_symbol(")")
            return expr
        if token.kind == "keyword" and token.value.lower() == "null":
            self.pos += 1
            return Literal(None)
        if token.kind in ("ident", "keyword"):
            name = self.advance().value
            if self.accept_symbol("("):
                return self.parse_call(name)
            if self.accept_symbol("."):
                column = self.expect_name()
                return ColumnRef(name, column)
            return ColumnRef(None, name)
        self.error("expected an expression")

    def parse_call(self, name: str) -> Expr:
        lowered = name.lower()
        if lowered in AGGREGATE_NAMES:
            distinct = self.accept_keyword("distinct")
            if self.accept_symbol("*"):
                self.expect_symbol(")")
                if lowered != "count":
                    self.error(f"{name}(*) is only valid for COUNT")
                return Aggregate("count", None, distinct)
            arg = self.parse_expr()
            self.expect_symbol(")")
            return Aggregate(lowered, arg, distinct)
        args: list[Expr] = []
        if not self.accept_symbol(")"):
            args.append(self.parse_expr())
            while self.accept_symbol(","):
                args.append(self.parse_expr())
            self.expect_symbol(")")
        return FuncCall(name, args)
