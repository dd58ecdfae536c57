"""minidb execution semantics, differentially tested against sqlite.

Every test runs the same SQL on both engines and asserts equal result
multisets — sqlite is the semantics oracle.
"""

import pytest

from repro.errors import ConstraintError, SchemaError
from repro.relational import MiniDbBackend, SqliteBackend


@pytest.fixture
def pair():
    """Both backends with the same small dataset."""
    backends = (SqliteBackend(), MiniDbBackend())
    for backend in backends:
        backend.execute("CREATE TABLE people (id INTEGER PRIMARY KEY, "
                        "name TEXT NOT NULL, age INTEGER, city TEXT)")
        backend.execute("CREATE TABLE pets (id INTEGER PRIMARY KEY, "
                        "owner_id INTEGER NOT NULL, species TEXT NOT NULL)")
        backend.execute("CREATE INDEX idx_people_city ON people (city)")
        backend.execute("CREATE INDEX idx_pets_owner ON pets (owner_id)")
        people = [(1, "ann", 34, "olso"), (2, "bob", 28, "bergen"),
                  (3, "cai", 41, "olso"), (4, "dee", 28, None),
                  (5, "eli", None, "tromso")]
        pets = [(1, 1, "cat"), (2, 1, "dog"), (3, 3, "cat"),
                (4, 5, "parrot")]
        backend.executemany(
            "INSERT INTO people (id, name, age, city) VALUES (?, ?, ?, ?)",
            people)
        backend.executemany(
            "INSERT INTO pets (id, owner_id, species) VALUES (?, ?, ?)",
            pets)
    yield backends
    for backend in backends:
        backend.close()


def both(pair, sql, params=()):
    sqlite, minidb = pair
    expected = sorted(sqlite.execute(sql, params))
    actual = sorted(minidb.execute(sql, params))
    assert actual == expected, f"divergence on: {sql}"
    return actual


class TestSingleTable:
    def test_full_scan(self, pair):
        rows = both(pair, "SELECT name FROM people")
        assert len(rows) == 5

    def test_equality_filter(self, pair):
        rows = both(pair, "SELECT name FROM people WHERE city = 'olso'")
        assert len(rows) == 2

    def test_equality_via_param(self, pair):
        both(pair, "SELECT name FROM people WHERE city = ?", ("bergen",))

    def test_range_filter(self, pair):
        rows = both(pair, "SELECT name FROM people WHERE age > 30")
        assert len(rows) == 2

    def test_range_both_bounds(self, pair):
        both(pair, "SELECT name FROM people WHERE age >= 28 AND age < 41")

    def test_null_never_matches_comparison(self, pair):
        rows = both(pair, "SELECT name FROM people WHERE age < 100")
        assert ("eli",) not in rows

    def test_is_null(self, pair):
        rows = both(pair, "SELECT name FROM people WHERE city IS NULL")
        assert rows == [("dee",)]

    def test_is_not_null(self, pair):
        both(pair, "SELECT name FROM people WHERE age IS NOT NULL")

    def test_or_condition(self, pair):
        both(pair, "SELECT name FROM people WHERE age = 28 OR city = 'olso'")

    def test_not_condition(self, pair):
        both(pair, "SELECT name FROM people WHERE NOT city = 'olso'")

    def test_in_list(self, pair):
        both(pair, "SELECT name FROM people WHERE city IN ('olso', 'tromso')")

    def test_like_patterns(self, pair):
        both(pair, "SELECT name FROM people WHERE name LIKE '%a%'")
        both(pair, "SELECT name FROM people WHERE name LIKE 'a__'")

    def test_arithmetic_projection(self, pair):
        both(pair, "SELECT id * 2 + 1 FROM people WHERE age = 34")

    def test_scalar_functions(self, pair):
        both(pair, "SELECT upper(name) FROM people WHERE id = 1")
        both(pair, "SELECT length(name) FROM people")
        both(pair, "SELECT abs(0 - id) FROM people")


class TestJoins:
    def test_inner_join_on(self, pair):
        rows = both(pair, "SELECT p.name, q.species FROM people p "
                          "JOIN pets q ON q.owner_id = p.id")
        assert len(rows) == 4

    def test_comma_join_with_where(self, pair):
        both(pair, "SELECT p.name, q.species FROM people p, pets q "
                   "WHERE q.owner_id = p.id AND q.species = 'cat'")

    def test_join_plus_filter_on_either_side(self, pair):
        both(pair, "SELECT p.name FROM people p JOIN pets q "
                   "ON q.owner_id = p.id WHERE p.city = 'olso' "
                   "AND q.species = 'cat'")

    def test_three_way_join(self, pair):
        both(pair, "SELECT a.name, b.name FROM people a, pets x, people b "
                   "WHERE x.owner_id = a.id AND b.age = a.age "
                   "AND b.id != a.id")

    def test_cross_product_without_condition(self, pair):
        rows = both(pair, "SELECT p.id, q.id FROM people p, pets q")
        assert len(rows) == 20

    def test_non_equi_join_condition(self, pair):
        both(pair, "SELECT a.name, b.name FROM people a, people b "
                   "WHERE a.age < b.age")


class TestLeftJoins:
    def test_unmatched_outer_rows_are_null_padded(self, pair):
        rows = both(pair, "SELECT p.name, q.species FROM people p "
                          "LEFT JOIN pets q ON q.owner_id = p.id")
        assert ("bob", None) in rows and ("ann", "cat") in rows
        assert len(rows) == 6

    def test_outer_keyword_is_optional(self, pair):
        both(pair, "SELECT p.name, q.species FROM people p "
                   "LEFT OUTER JOIN pets q ON q.owner_id = p.id")

    def test_null_in_on_matches_nothing(self, pair):
        # dee's city and eli's age are NULL: NULL = NULL is not a match
        rows = both(pair, "SELECT a.name, b.name FROM people a "
                          "LEFT JOIN people b "
                          "ON b.city = a.city AND b.id != a.id")
        assert ("dee", None) in rows
        rows = both(pair, "SELECT a.name, b.name FROM people a "
                          "LEFT JOIN people b ON b.age < a.age")
        assert ("eli", None) in rows

    def test_on_filter_on_the_outer_side_keeps_the_row(self, pair):
        rows = both(pair, "SELECT p.name, q.species FROM people p "
                          "LEFT JOIN pets q "
                          "ON q.owner_id = p.id AND p.city = 'olso'")
        assert ("eli", None) in rows and ("cai", "cat") in rows

    def test_on_filter_on_the_inner_side(self, pair):
        rows = both(pair, "SELECT p.name, q.species FROM people p "
                          "LEFT JOIN pets q "
                          "ON q.owner_id = p.id AND q.species = ?",
                    ("dog",))
        assert rows.count(("ann", "dog")) == 1 and ("cai", None) in rows

    def test_where_over_the_inner_side_applies_after_padding(self, pair):
        rows = both(pair, "SELECT p.name FROM people p "
                          "LEFT JOIN pets q ON q.owner_id = p.id "
                          "WHERE q.id IS NULL")
        assert rows == [("bob",), ("dee",)]

    def test_left_join_after_comma_joins(self, pair):
        both(pair, "SELECT a.name, b.name, q.species "
                   "FROM people a, people b "
                   "LEFT JOIN pets q ON q.owner_id = b.id "
                   "WHERE a.city = b.city AND a.id < b.id")

    def test_left_join_after_inner_join(self, pair):
        both(pair, "SELECT a.name, b.name, q.species FROM people a "
                   "JOIN people b ON a.age = b.age AND a.id != b.id "
                   "LEFT JOIN pets q ON q.owner_id = b.id")

    def test_two_left_joins_off_one_table_multiply(self, pair):
        # the value-statement shape: max(1, m) x max(1, n) rows per
        # outer row — ann has two pets, so ann x 2 pets x 2 pets
        rows = both(pair, "SELECT p.name, q.species, r.id FROM people p "
                          "LEFT JOIN pets q ON q.owner_id = p.id "
                          "LEFT JOIN pets r ON r.owner_id = p.id "
                          "AND r.id >= q.id")
        assert len([row for row in rows if row[0] == "ann"]) == 3
        assert ("dee", None, None) in rows

    def test_range_only_on_is_a_nested_loop(self, pair):
        both(pair, "SELECT p.name, q.id FROM people p "
                   "LEFT JOIN pets q ON q.id >= p.id AND q.id <= p.age")

    def test_inner_join_may_not_follow_a_left_join(self):
        backend = MiniDbBackend()
        for tail in (", pets r", "JOIN pets r ON r.id = q.id"):
            with pytest.raises(SchemaError, match="LEFT JOIN"):
                backend.execute(
                    "SELECT p.id FROM people p "
                    "LEFT JOIN pets q ON q.owner_id = p.id " + tail)

    def test_explain_notes_the_left_join(self):
        backend = MiniDbBackend()
        backend.execute("CREATE TABLE a (x INTEGER)")
        backend.execute("CREATE TABLE b (y INTEGER)")
        plan = backend.explain(
            "SELECT a.x, b.y FROM a LEFT JOIN b ON b.y = a.x")
        assert any("left hash join b" in step for step in plan)


class TestAggregatesAndShaping:
    def test_count_star(self, pair):
        assert both(pair, "SELECT COUNT(*) FROM people") == [(5,)]

    def test_count_column_skips_nulls(self, pair):
        assert both(pair, "SELECT COUNT(age) FROM people") == [(4,)]

    def test_count_distinct(self, pair):
        assert both(pair, "SELECT COUNT(DISTINCT city) FROM people") == [(3,)]

    def test_min_max_sum_avg(self, pair):
        both(pair, "SELECT MIN(age), MAX(age), SUM(age) FROM people")
        both(pair, "SELECT AVG(age) FROM people WHERE city = 'olso'")

    def test_group_by_with_count(self, pair):
        both(pair, "SELECT city, COUNT(*) FROM people "
                   "WHERE city IS NOT NULL GROUP BY city ORDER BY city")

    def test_distinct(self, pair):
        rows = both(pair, "SELECT DISTINCT city FROM people "
                          "WHERE city IS NOT NULL")
        assert len(rows) == 3

    def test_order_by_asc_desc(self, pair):
        sqlite, minidb = pair
        sql = "SELECT name FROM people WHERE age IS NOT NULL ORDER BY age DESC, name"
        assert minidb.execute(sql) == sqlite.execute(sql)

    def test_limit(self, pair):
        sqlite, minidb = pair
        sql = "SELECT name FROM people ORDER BY name LIMIT 2"
        assert minidb.execute(sql) == sqlite.execute(sql)

    def test_aggregate_on_empty_set(self, pair):
        both(pair, "SELECT MAX(age), COUNT(*) FROM people WHERE id = 999")


class TestDml:
    def test_delete_with_predicate(self, pair):
        for backend in pair:
            backend.execute("DELETE FROM pets WHERE species = 'cat'")
        rows = both(pair, "SELECT species FROM pets")
        assert len(rows) == 2

    def test_delete_all(self, pair):
        for backend in pair:
            backend.execute("DELETE FROM pets")
        assert both(pair, "SELECT COUNT(*) FROM pets") == [(0,)]

    def test_insert_visible_to_index_lookup(self, pair):
        for backend in pair:
            backend.execute("INSERT INTO people (id, name, age, city) "
                            "VALUES (?, ?, ?, ?)", (6, "fay", 20, "olso"))
        rows = both(pair, "SELECT name FROM people WHERE city = 'olso'")
        assert len(rows) == 3


class TestMiniDbSpecifics:
    def test_duplicate_primary_key_rejected(self):
        backend = MiniDbBackend()
        backend.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
        backend.execute("INSERT INTO t (id, v) VALUES (1, 'a')")
        with pytest.raises(ConstraintError):
            backend.execute("INSERT INTO t (id, v) VALUES (1, 'b')")

    def test_not_null_enforced(self):
        backend = MiniDbBackend()
        backend.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, "
                        "v TEXT NOT NULL)")
        with pytest.raises(ConstraintError):
            backend.execute("INSERT INTO t (id, v) VALUES (1, ?)", (None,))

    def test_unknown_table_rejected(self):
        with pytest.raises(SchemaError):
            MiniDbBackend().execute("SELECT x FROM nothing")

    def test_unknown_column_rejected(self):
        backend = MiniDbBackend()
        backend.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)")
        with pytest.raises(SchemaError):
            backend.execute("SELECT nope FROM t")

    def test_ambiguous_bare_column_rejected(self):
        backend = MiniDbBackend()
        backend.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)")
        backend.execute("CREATE TABLE u (id INTEGER PRIMARY KEY)")
        with pytest.raises(SchemaError):
            backend.execute("SELECT id FROM t a, u b")

    def test_explain_reports_index_use(self):
        backend = MiniDbBackend()
        backend.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, c TEXT)")
        backend.execute("CREATE INDEX idx_c ON t (c)")
        backend.execute("INSERT INTO t (id, c) VALUES (1, 'x')")
        plan = backend.explain("SELECT id FROM t WHERE c = 'x'")
        assert any("index lookup" in step for step in plan)

    def test_explain_reports_seq_scan_without_index(self):
        backend = MiniDbBackend()
        backend.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, c TEXT)")
        plan = backend.explain("SELECT id FROM t WHERE c = 'x'")
        assert any("seq scan" in step for step in plan)

    def test_statement_cache_reused(self):
        backend = MiniDbBackend()
        backend.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)")
        sql = "SELECT id FROM t"
        backend.execute(sql)
        cached = backend._statement_cache[sql]
        backend.execute(sql)
        assert backend._statement_cache[sql] is cached
