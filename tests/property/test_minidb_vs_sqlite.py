"""Property-based differential testing: minidb must agree with sqlite
on randomly generated single-table and join queries."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.relational import MiniDbBackend, SqliteBackend

COLUMNS = ["id", "grp", "num", "label"]
LABELS = ["alpha", "beta", "gamma", None]

rows_strategy = st.lists(
    st.tuples(
        st.integers(0, 50),                      # grp
        st.one_of(st.none(), st.integers(-100, 100)),   # num
        st.sampled_from(LABELS)),                 # label
    min_size=0, max_size=40)

comparison_ops = st.sampled_from(["=", "!=", "<", "<=", ">", ">="])


@st.composite
def predicates(draw):
    kind = draw(st.integers(0, 4))
    if kind == 0:
        op = draw(comparison_ops)
        value = draw(st.integers(-50, 50))
        return f"num {op} {value}"
    if kind == 1:
        label = draw(st.sampled_from([l for l in LABELS if l]))
        return f"label = '{label}'"
    if kind == 2:
        return draw(st.sampled_from(["num IS NULL", "num IS NOT NULL",
                                     "label IS NULL"]))
    if kind == 3:
        op = draw(comparison_ops)
        value = draw(st.integers(0, 40))
        return f"grp {op} {value}"
    pattern = draw(st.sampled_from(["%a%", "b%", "%ta", "_lpha"]))
    return f"label LIKE '{pattern}'"


@st.composite
def where_clauses(draw):
    parts = draw(st.lists(predicates(), min_size=1, max_size=3))
    connectors = draw(st.lists(st.sampled_from(["AND", "OR"]),
                               min_size=len(parts) - 1,
                               max_size=len(parts) - 1))
    clause = parts[0]
    for connector, part in zip(connectors, parts[1:]):
        clause += f" {connector} {part}"
    if draw(st.booleans()):
        clause = f"NOT ({clause})"
    return clause


def fill(backend, rows):
    backend.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, grp INTEGER, "
                    "num INTEGER, label TEXT)")
    backend.execute("CREATE INDEX idx_grp ON t (grp)")
    backend.execute("CREATE INDEX idx_num ON t (num)")
    backend.executemany(
        "INSERT INTO t (id, grp, num, label) VALUES (?, ?, ?, ?)",
        [(i,) + row for i, row in enumerate(rows)])


@given(rows=rows_strategy, where=where_clauses())
@settings(max_examples=120, deadline=None)
def test_filtered_selects_agree(rows, where):
    sqlite, minidb = SqliteBackend(), MiniDbBackend()
    try:
        fill(sqlite, rows)
        fill(minidb, rows)
        sql = f"SELECT id, grp, num, label FROM t WHERE {where}"
        assert sorted(minidb.execute(sql)) == sorted(sqlite.execute(sql))
    finally:
        sqlite.close()
        minidb.close()


@given(rows=rows_strategy)
@settings(max_examples=60, deadline=None)
def test_self_join_agrees(rows):
    sqlite, minidb = SqliteBackend(), MiniDbBackend()
    try:
        fill(sqlite, rows)
        fill(minidb, rows)
        sql = ("SELECT a.id, b.id FROM t a JOIN t b ON a.grp = b.grp "
               "WHERE a.id != b.id")
        assert sorted(minidb.execute(sql)) == sorted(sqlite.execute(sql))
    finally:
        sqlite.close()
        minidb.close()


#: ON clauses for ``t a LEFT JOIN t b``: equi (NULL-able ``num``),
#: range-only, equi plus a filter on either side
LEFT_ONS = ["b.num = a.num AND b.id != a.id",
            "b.grp >= a.grp AND b.grp <= a.num",
            "b.grp = a.grp AND b.label = 'alpha'",
            "b.grp = a.grp AND a.num > 0",
            "b.label = a.label"]


@given(rows=rows_strategy, on=st.sampled_from(LEFT_ONS),
       second=st.one_of(st.none(), st.sampled_from(LEFT_ONS)),
       where=st.one_of(st.none(), st.sampled_from(
           ["b.id IS NULL", "a.num IS NOT NULL", "b.grp > 10"])))
@settings(max_examples=120, deadline=None)
def test_left_joins_agree(rows, on, second, where):
    """Unmatched outer rows, NULL in ON, a second LEFT JOIN off the
    same outer table (rows multiply), WHERE over the padded side."""
    sqlite, minidb = SqliteBackend(), MiniDbBackend()
    try:
        fill(sqlite, rows)
        fill(minidb, rows)
        sql = f"SELECT a.id, b.id FROM t a LEFT JOIN t b ON {on}"
        if second:
            sql = sql.replace("SELECT a.id, b.id", "SELECT a.id, b.id, c.id")
            sql += " LEFT JOIN t c ON " + second.replace("b.", "c.")
        if where:
            sql += f" WHERE {where}"
        assert sorted(minidb.execute(sql), key=repr) \
            == sorted(sqlite.execute(sql), key=repr)
    finally:
        sqlite.close()
        minidb.close()


@given(rows=rows_strategy)
@settings(max_examples=40, deadline=None)
def test_left_join_after_comma_join_agrees(rows):
    sqlite, minidb = SqliteBackend(), MiniDbBackend()
    try:
        fill(sqlite, rows)
        fill(minidb, rows)
        sql = ("SELECT a.id, b.id, c.id FROM t a, t b "
               "LEFT JOIN t c ON c.grp = b.grp AND c.id > b.id "
               "WHERE a.num = b.num AND a.id < b.id")
        assert sorted(minidb.execute(sql), key=repr) \
            == sorted(sqlite.execute(sql), key=repr)
    finally:
        sqlite.close()
        minidb.close()


@given(rows=rows_strategy)
@settings(max_examples=60, deadline=None)
def test_aggregates_agree(rows):
    sqlite, minidb = SqliteBackend(), MiniDbBackend()
    try:
        fill(sqlite, rows)
        fill(minidb, rows)
        for sql in [
                "SELECT COUNT(*), COUNT(num), COUNT(DISTINCT label) FROM t",
                "SELECT MIN(num), MAX(num), SUM(num) FROM t",
                "SELECT grp, COUNT(*) FROM t GROUP BY grp ORDER BY grp"]:
            assert sorted(minidb.execute(sql)) == sorted(sqlite.execute(sql))
    finally:
        sqlite.close()
        minidb.close()


@given(rows=rows_strategy, limit=st.integers(0, 10))
@settings(max_examples=40, deadline=None)
def test_order_by_limit_agree(rows, limit):
    sqlite, minidb = SqliteBackend(), MiniDbBackend()
    try:
        fill(sqlite, rows)
        fill(minidb, rows)
        sql = (f"SELECT id FROM t WHERE num IS NOT NULL "
               f"ORDER BY num, id LIMIT {limit}")
        assert minidb.execute(sql) == sqlite.execute(sql)
    finally:
        sqlite.close()
        minidb.close()
