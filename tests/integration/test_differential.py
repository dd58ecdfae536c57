"""Differential testing: the relational path (both backends) must agree
with the native-XML tree evaluator on a battery of queries."""

import pytest

QUERIES = [
    # keyword, any scope
    '''FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
       WHERE contains($a, "copper", any) RETURN $a//enzyme_id''',
    # keyword, node scope
    '''FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
       WHERE contains($a//catalytic_activity, "ketone")
       RETURN $a//enzyme_id''',
    # sub-tree keyword on a list container
    '''FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
       WHERE contains($a//comment_list, "substrates")
       RETURN $a//enzyme_id''',
    # attribute equality via step predicate + cross-db join
    '''FOR $a IN document("hlx_embl.inv")/hlx_n_sequence/db_entry,
        $b IN document("hlx_enzyme.DEFAULT")/hlx_enzyme/db_entry
       WHERE $a//qualifier[@qualifier_type = "EC_number"] = $b/enzyme_id
       RETURN $a//embl_accession_number, $b//enzyme_description''',
    # numeric range on an attribute-derived element value
    '''FOR $a IN document("hlx_sprot.all")/hlx_n_sequence
       WHERE $a//sequence/@length > 400 RETURN $a//entry_name''',
    # attribute return item
    '''FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
       WHERE contains($a//enzyme_description, "synthase")
       RETURN $a//reference/@swissprot_accession_number''',
    # disjunction
    '''FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
       WHERE contains($a//catalytic_activity, "ketone")
          OR contains($a//catalytic_activity, "alcohol")
       RETURN $a//enzyme_id''',
    # negation
    '''FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
       WHERE contains($a//enzyme_description, "synthase")
         AND NOT contains($a//cofactor_list, "copper")
       RETURN $a//enzyme_id''',
    # two keyword conditions over two databases (cross product)
    '''FOR $a IN document("hlx_embl.inv")/hlx_n_sequence,
        $b IN document("hlx_sprot.all")/hlx_n_sequence
       WHERE contains($a, "cdc6", any) AND contains($b, "cdc6", any)
       RETURN $a//embl_accession_number, $b//sprot_accession_number''',
    # variable re-rooted on another variable
    '''FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme,
        $r IN $a//reference
       RETURN $r/@swissprot_accession_number''',
    # equality against a string literal
    '''FOR $a IN document("hlx_embl.inv")/hlx_n_sequence
       WHERE $a//division = "inv" RETURN $a//entry_name''',
    # wildcard step
    '''FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
       WHERE contains($a//catalytic_activity, "ketone")
       RETURN $a/db_entry/enzyme_id''',
    # positional predicate
    '''FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
       WHERE contains($a//enzyme_description, "synthase")
       RETURN $a//alternate_name[1]''',
    # order operators
    '''FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
       WHERE $a//enzyme_description BEFORE $a//swissprot_reference_list
         AND contains($a, "copper", any)
       RETURN $a//enzyme_id''',
    # sequence motif search
    '''FOR $a IN document("hlx_embl.inv")/hlx_n_sequence
       WHERE seqcontains($a//sequence, "acg.ta")
       RETURN $a//embl_accession_number''',
    # disease join (OMIM source)
    '''FOR $e IN document("hlx_enzyme.DEFAULT")/hlx_enzyme/db_entry,
        $d IN document("hlx_omim.DEFAULT")/hlx_disease/db_entry
       WHERE $e//disease/@mim_id = $d/mim_id
       RETURN $e//enzyme_id, $d//title''',
    # element constructor
    '''FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
       WHERE contains($a//catalytic_activity, "ketone")
       RETURN <hit ec={ $a//enzyme_id }>
                <what>{ $a//enzyme_description }</what>
              </hit>''',
    # document-wide source query (no collection)
    '''FOR $a IN document("hlx_embl")/hlx_n_sequence
       WHERE $a//sequence/@length > 1500
       RETURN $a//entry_name''',
]


def canonical(result):
    """Order-insensitive canonical form of a query result."""
    return sorted(
        tuple(sorted((column, tuple(values))
                     for column, values in row.values.items()))
        for row in result.rows)


@pytest.mark.parametrize("query_text", QUERIES,
                         ids=[f"q{i}" for i in range(len(QUERIES))])
def test_relational_agrees_with_native(query_text, warehouse, native_store):
    relational = warehouse.query(query_text)
    native = native_store.query(query_text)
    assert canonical(relational) == canonical(native)


def test_battery_is_not_vacuous(warehouse):
    """At least half the battery queries return rows on the test corpus
    (all-empty agreement would prove nothing)."""
    non_empty = sum(
        1 for text in QUERIES if len(warehouse.query(text)) > 0)
    assert non_empty >= len(QUERIES) // 2


# --------------------------------------------------------------------------
# RETURN paths: one value statement per path, merged onto bindings
# --------------------------------------------------------------------------

from repro.baselines import NativeXmlStore  # noqa: E402
from repro.translator.compile import DOC_CHUNK  # noqa: E402
from repro.xmlkit import parse_document  # noqa: E402


def both_stores(empty_warehouse, texts):
    """The same documents in the warehouse under test and in the
    native-XML evaluator."""
    store = NativeXmlStore()
    with empty_warehouse.loader.bulk_session() as session:
        for i, text in enumerate(texts):
            session.add("src", "c", f"k{i}", parse_document(text))
    empty_warehouse.optimize()
    for i, text in enumerate(texts):
        store.add_document("src", "c", f"k{i}", parse_document(text))
    return empty_warehouse, store


RETURN_PATHS = [
    # (case, documents, query)
    ("empty holder", ["<r><t/></r>"],
     'FOR $r IN document("src.c")/r RETURN $r/t'),
    ("nested sub-tree text", ["<r><g><a>one</a><b><c>two</c></b></g></r>"],
     'FOR $r IN document("src.c")/r RETURN $r/g'),
    ("multi-valued item", ["<r><n>3</n><n>1</n><n/><n>2</n></r>"],
     'FOR $r IN document("src.c")/r RETURN $r//n'),
    ("sequence-bearing holder",
     ['<r><e><id>x1</id><sequence length="4">acgt</sequence></e></r>'],
     'FOR $r IN document("src.c")/r RETURN $r//sequence, $r//e'),
    ("attribute item", ['<r><a k="1"/><a/><a k="3"/></r>'],
     'FOR $r IN document("src.c")/r RETURN $r//a/@k, $r//@k'),
    ("constructor item", ["<r><id>7</id><n>a</n><n>b</n></r>"],
     'FOR $r IN document("src.c")/r '
     'RETURN <hit id={ $r/id }><names>{ $r/n }</names></hit>'),
    ("whole-variable item", ["<r><e>p<f>q</f></e><e/></r>"],
     'FOR $e IN document("src.c")/r/e RETURN $e'),
    ("holder reached by two routes", ["<r><a><a><b>x</b></a></a></r>"],
     'FOR $r IN document("src.c")/r RETURN $r//a//b, $r//a//b/@k'),
    ("binding reached by two routes",
     ['<r><a><a><b k="1">x</b></a></a></r>'],
     'FOR $b IN document("src.c")//a//b RETURN $b, $b/@k'),
    ("context variable over nested elements",
     ["<r><a><a><b>x</b></a></a></r>"],
     'FOR $x IN document("src.c")//a, $b IN $x//b RETURN $b'),
    ("two children satisfy a step predicate",
     ["<r><e><c>v</c><c>v</c><d>once</d></e></r>"],
     'FOR $r IN document("src.c")/r RETURN $r/e[c = "v"]/d'),
    ("more than one chunk of bound documents",
     [f"<r><id>{i}</id><t/></r>" for i in range(DOC_CHUNK + 7)],
     'FOR $r IN document("src.c")/r RETURN $r/id, $r/t'),
]


@pytest.mark.parametrize("documents, query",
                         [case[1:] for case in RETURN_PATHS],
                         ids=[case[0] for case in RETURN_PATHS])
def test_return_paths_agree_with_native(documents, query, empty_warehouse):
    warehouse, store = both_stores(empty_warehouse, documents)
    relational = warehouse.query(query)
    native = store.query(query)
    assert len(relational) > 0
    assert canonical(relational) == canonical(native)
    assert relational.to_xml() == native.to_xml()


def test_second_route_is_not_concatenated(empty_warehouse):
    """``$r//a//b`` over nested ``a``: one ``b``, reached through either
    ``a`` — its text once, not once per route."""
    warehouse, __ = both_stores(empty_warehouse,
                                ["<r><a><a><b>x</b></a></a></r>"])
    result = warehouse.query(
        'FOR $r IN document("src.c")/r RETURN $r//a//b')
    assert result.rows[0].values["b"] == ["x"]


def test_mixed_content_keeps_node_order(empty_warehouse):
    """The schema stores a node's text pieces without their position
    among its element children, so the string value groups them by
    owning node (``prq``, where the native evaluator reads ``pqr``)."""
    warehouse, __ = both_stores(empty_warehouse,
                                ["<r><b>p<c>q</c>r</b></r>"])
    result = warehouse.query('FOR $r IN document("src.c")/r RETURN $r/b')
    assert result.rows[0].values["b"] == ["prq"]


class CountingBackend:
    """Counts the SELECT statements reaching the backend it wraps."""

    def __init__(self, backend):
        self._backend = backend
        self.name = backend.name
        self.selects: list[str] = []

    def execute(self, sql, params=()):
        if sql.lstrip().upper().startswith("SELECT"):
            self.selects.append(sql)
        return self._backend.execute(sql, params)

    def __getattr__(self, name):
        return getattr(self._backend, name)


def test_one_statement_per_return_path(backend, corpus):
    """Figure 9 shape: one binding statement plus one per RETURN path
    (seven at the parent commit: three per path). Figure 11 shape: one
    per path per chunk of bound documents."""
    from repro.engine import Warehouse
    counting = CountingBackend(backend)
    warehouse = Warehouse(backend=counting)
    warehouse.load_corpus(corpus)

    def executed(text):
        compiled = warehouse.translate(text)   # checking probes documents
        counting.selects.clear()
        result = warehouse.xomatiq.execute(compiled)
        # constant texts, known at compile time: no doc ids in them
        assert set(counting.selects) == set(compiled.statements())
        return result

    result = executed(QUERIES[1] + ", $a//enzyme_description")
    assert 0 < len(result) <= DOC_CHUNK
    assert len(counting.selects) == 3

    both_stores(warehouse, [f"<r><id>{i}</id></r>"
                            for i in range(2 * DOC_CHUNK + 1)])
    result = executed(
        'FOR $r IN document("src.c")/r RETURN $r/id, $r/missing')
    assert len(result) == 2 * DOC_CHUNK + 1
    assert len(counting.selects) == 1 + 2 * 3
