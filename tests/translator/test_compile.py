"""Unit tests for the XQ2SQL compiler (SQL shape, not execution)."""

from repro.translator import compile_query
from repro.translator.compile import DOC_CHUNK
from repro.xquery import parse_query

FIG9 = '''FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
WHERE contains($a//catalytic_activity, "ketone")
RETURN $a//enzyme_id, $a//enzyme_description'''

FIG11 = '''FOR $a IN document("hlx_embl.inv")/hlx_n_sequence/db_entry,
    $b IN document("hlx_enzyme.DEFAULT")/hlx_enzyme/db_entry
WHERE $a//qualifier[@qualifier_type = "EC_number"] = $b/enzyme_id
RETURN $Accession_Number = $a//embl_accession_number'''


def compiled(text):
    return compile_query(parse_query(text))


class TestBindingSql:
    def test_one_disjunct_for_conjunctive_query(self):
        assert len(compiled(FIG9).disjuncts) == 1
        assert compiled(FIG9).disjuncts[0].negations == []

    def test_binding_sql_selects_four_columns_per_var(self):
        sql = compiled(FIG11).disjuncts[0].positive.sql
        select_line = sql.splitlines()[0]
        # two variables -> 8 selected columns
        assert select_line.count(",") == 7

    def test_binding_sql_is_distinct(self):
        assert compiled(FIG9).disjuncts[0].positive.sql.startswith(
            "SELECT DISTINCT")

    def test_keyword_condition_probes_keyword_table(self):
        sql = compiled(FIG9).disjuncts[0].positive.sql
        assert "keywords" in sql
        assert "token = ?" in sql
        assert "ketone" in compiled(FIG9).disjuncts[0].positive.params

    def test_descendant_step_uses_interval_encoding(self):
        sql = compiled(FIG9).disjuncts[0].positive.sql
        assert "subtree_end" in sql

    def test_join_query_compares_text_values(self):
        sql = compiled(FIG11).disjuncts[0].positive.sql
        assert sql.count("text_values") >= 2
        assert "qualifier_type" in str(
            compiled(FIG11).disjuncts[0].positive.params)

    def test_collection_constraint_present(self):
        params = compiled(FIG11).disjuncts[0].positive.params
        assert "inv" in params and "DEFAULT" in params

    def test_or_query_yields_two_disjuncts(self):
        text = FIG9.replace(
            'contains($a//catalytic_activity, "ketone")',
            'contains($a//catalytic_activity, "ketone") OR '
            'contains($a//comment, "copper")')
        assert len(compiled(text).disjuncts) == 2

    def test_not_query_yields_negation_sql(self):
        text = FIG9.replace(
            'contains($a//catalytic_activity, "ketone")',
            'contains($a//enzyme_description, "synthase") AND '
            'NOT contains($a//catalytic_activity, "ketone")')
        disjunct = compiled(text).disjuncts[0]
        assert len(disjunct.negations) == 1
        # the negation SQL contains both the positive atoms and the
        # negated atom
        assert disjunct.negations[0].sql.count("keywords") == 2

    def test_proximity_adds_position_window(self):
        text = ('FOR $a IN document("d.c")/r '
                'WHERE contains($a, "alpha beta", 10) RETURN $a//x')
        sql = compiled(text).disjuncts[0].positive.sql
        assert "abs(" in sql
        assert ".position" in sql

    def test_numeric_literal_uses_num_value(self):
        text = ('FOR $a IN document("d.c")/r '
                'WHERE $a//score > 100 RETURN $a//x')
        sql = compiled(text).disjuncts[0].positive.sql
        assert "num_value > ?" in sql

    def test_string_literal_uses_text_value(self):
        text = ('FOR $a IN document("d.c")/r '
                'WHERE $a//name = "abc" RETURN $a//x')
        sql = compiled(text).disjuncts[0].positive.sql
        assert ".value = ?" in sql


class TestItemSql:
    def test_one_item_query_per_return_item(self):
        assert len(compiled(FIG9).items) == 2
        assert all(len(item.values) == 1 for item in compiled(FIG9).items)

    def test_item_sql_selects_piece_columns(self):
        sql = compiled(FIG9).items[0].values[0].sql
        head = sql.splitlines()[0]
        # doc, anchor, holder order, text node + value, sequence node +
        # residues; $a//enzyme_id has one route, so no route columns
        assert head.count(",") == 6

    def test_item_sql_left_joins_holder_values(self):
        # the holder survives without text: both value tables are
        # outer-joined on its interval, in one statement
        sql = compiled(FIG9).items[0].values[0].sql
        assert not sql.startswith("SELECT DISTINCT")
        assert sql.count("LEFT JOIN") == 2
        assert "LEFT JOIN text_values t0 ON t0.doc_id = e1.doc_id" in sql
        assert "t0.node_id <= e1.subtree_end" in sql

    def test_attribute_item_reads_attributes_table(self):
        text = ('FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme '
                'RETURN $a//reference/@swissprot_accession_number')
        value = compiled(text).items[0].values[0]
        assert value.attribute
        assert "attributes" in value.sql
        assert "LEFT JOIN" not in value.sql

    def test_element_item_left_joins_sequences(self):
        text = ('FOR $a IN document("hlx_embl.inv")/hlx_n_sequence '
                'RETURN $a//sequence')
        value = compiled(text).items[0].values[0]
        assert "LEFT JOIN sequences s0 ON s0.doc_id = e1.doc_id" in value.sql
        assert "s0.residues" in value.sql.splitlines()[0]

    def test_second_route_to_a_holder_selects_route_columns(self):
        text = 'FOR $r IN document("src.c")/r RETURN $r//a//b'
        head = compiled(text).items[0].values[0].sql.splitlines()[0]
        # e1 (an `a`) can be an ancestor of another `a` over the same `b`
        assert head.endswith(", e1.node_id")

    def test_doc_restriction_is_a_fixed_width_parameter_block(self):
        value = compiled(FIG9).items[0].values[0]
        assert value.sql.count("?") == len(value.params) + DOC_CHUNK
        assert value.sql.endswith(
            "d0.doc_id IN (" + ", ".join("?" * DOC_CHUNK) + ")")
        bound = value.bind((4, 9))
        assert bound[:len(value.params) + 2] == value.params + (4, 9)
        assert set(bound[len(value.params) + 2:]) == {None}
        assert len(bound) == len(value.params) + DOC_CHUNK

    def test_statements_listing(self):
        query = compiled(FIG11)
        statements = query.parameterized_statements()
        # one binding query, then one statement per RETURN path with a
        # full (NULL-padded) parameter block — EXPLAIN can bind it
        assert [sql for sql, __ in statements] == query.statements()
        assert len(statements) == 2
        assert all(sql.startswith("SELECT") and sql.count("?") == len(params)
                   for sql, params in statements)
