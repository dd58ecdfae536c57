"""Execute a compiled query against a relational backend.

Python's role here is deliberately thin (the paper pushes evaluation
into the RDBMS): run each disjunct's binding SQL, union the binding
tuples, subtract negation tuples, run each RETURN path's one value
statement per :data:`~repro.translator.compile.DOC_CHUNK` bound
documents, fold its rows into one string per holder, and merge those
onto bindings by ``(doc_id, node_id)`` anchor keys in a single pass.
Constructor items additionally assemble one fresh XML element per
result row from their fetched values.
"""

from __future__ import annotations

from operator import itemgetter

from repro.obs.trace import NULL_TRACER
from repro.relational.backend import Backend
from repro.results.resultset import (
    BoundNode,
    QueryResult,
    ResultRow,
    unique_columns,
)
from repro.translator.compile import (
    DOC_CHUNK,
    VAR_COLUMNS,
    CompiledQuery,
    CompiledValue,
)
from repro.xmlkit.doc import Element
from repro.xmlkit.serializer import serialize_compact
from repro.xquery.ast import Constructor, VarPath


def execute_compiled(compiled: CompiledQuery,
                     backend: Backend,
                     tracer=NULL_TRACER) -> QueryResult:
    """Run all SQL of a compiled query; returns the merged result.

    The three execution phases (binding collection, value collection,
    merge) each get their own span of ``tracer``, nested under whatever
    span is currently open.
    """
    with tracer.span("bindings") as span:
        bindings = _collect_bindings(compiled, backend)
        span.count("binding_tuples", len(bindings))
    with tracer.span("values"):
        value_maps = _collect_value_maps(compiled, backend, bindings)
    with tracer.span("merge") as span:
        result = _merge_result(compiled, bindings, value_maps)
        span.count("result_rows", len(result))
    return result


def _output_columns(compiled: CompiledQuery) -> list[str]:
    """Result column names, uniquified (shared scheme with the native
    evaluator so differential tests compare like for like)."""
    return unique_columns([item.item.output_name
                           for item in compiled.items])


def _collect_value_maps(compiled: CompiledQuery, backend: Backend,
                        bindings: list[tuple]) -> list[list[dict]]:
    """Run every item's value queries, restricted to bound documents."""
    variables = compiled.variables
    doc_ids_by_var = {
        var: sorted({binding[i * VAR_COLUMNS] for binding in bindings})
        for i, var in enumerate(variables)}
    return [
        [_collect_values(value, backend,
                         doc_ids_by_var.get(value.varpath.var, []))
         for value in item.values]
        for item in compiled.items]


def _merge_result(compiled: CompiledQuery, bindings: list[tuple],
                  value_maps: list[list[dict]]) -> QueryResult:
    """Merge value maps onto binding tuples by anchor keys."""
    variables = compiled.variables
    columns = _output_columns(compiled)
    result = QueryResult(columns=columns, variables=list(variables))
    offsets = {var: i * VAR_COLUMNS for i, var in enumerate(variables)}
    items = [
        (column, item.item.constructor,
         [(offsets[value.varpath.var], value_map)
          for value, value_map in zip(item.values, maps)])
        for column, item, maps in zip(columns, compiled.items, value_maps)]
    for binding in bindings:
        row = ResultRow(bindings={
            var: BoundNode(binding[offset], binding[offset + 1])
            for var, offset in offsets.items()})
        for column, constructor, slots in items:
            values = [list(value_map.get(binding[offset:offset + 2], ()))
                      for offset, value_map in slots]
            if constructor is not None:
                element = _build_element(constructor, values)
                row.elements[column] = element
                row.values[column] = [serialize_compact(element)]
            else:
                row.values[column] = values[0]
        result.rows.append(row)
    return result


def _build_element(constructor: Constructor,
                   slot_values: list[list[str]]) -> Element:
    """Assemble one constructed element for one result row.

    ``slot_values`` parallels ``constructor.varpaths()`` order (the
    order the compiler emitted the value statements in).
    """
    counter = [0]

    def build(node: Constructor) -> Element:
        element = Element(node.tag)
        for name, value in node.attributes:
            if isinstance(value, VarPath):
                values = slot_values[counter[0]]
                counter[0] += 1
                if values:
                    element.set(name, values[0])
            else:
                element.set(name, value)
        for child in node.children:
            if isinstance(child, VarPath):
                values = slot_values[counter[0]]
                counter[0] += 1
                tag = _splice_tag(child)
                for value in values:
                    element.subelement(tag, text=value if value else None)
            else:
                element.append(build(child))
        return element

    return build(constructor)


def _splice_tag(varpath: VarPath) -> str:
    """Element name for spliced values: the path's final step name
    (attribute steps lose their ``@``), or the variable name."""
    if varpath.path is None:
        return varpath.var
    return varpath.path.last_name


def _collect_bindings(compiled: CompiledQuery,
                      backend: Backend) -> list[tuple]:
    """Union of disjunct binding tuples minus their negations, in a
    stable (document-order-ish) ordering."""
    accepted: set[tuple] = set()
    for disjunct in compiled.disjuncts:
        rows = {tuple(row) for row in backend.execute(
            disjunct.positive.sql, disjunct.positive.params)}
        for negation in disjunct.negations:
            rows -= {tuple(row) for row in backend.execute(
                negation.sql, negation.params)}
        accepted |= rows
    return sorted(accepted)


def _collect_values(value: CompiledValue, backend: Backend,
                    doc_ids: list[int]) -> dict[tuple, list[str]]:
    """Run one value statement over the documents that carry bindings
    (without that restriction it scans every document of the source —
    measured 75x slower than the binding query on selective queries);
    returns ``(doc_id, anchor_node) -> values in document order``.

    Element paths: one value per matched holder — the concatenation of
    all text/residue pieces in the holder's subtree, document order
    (the XQuery string value; ``""`` for empty elements). Attribute
    paths: one value per present attribute.
    """
    rows: list[tuple] = []
    for start in range(0, len(doc_ids), DOC_CHUNK):
        rows += backend.execute(
            value.sql, value.bind(tuple(doc_ids[start:start + DOC_CHUNK])))

    # (doc, anchor, holder) -> value. A holder reached by several
    # routes repeats its rows once per route: attributes are unique per
    # element, so the key alone folds them; element pieces are not
    # (mixed content owns several text rows), so one route is kept.
    holders: dict[tuple, str] = {}
    if value.attribute:
        for doc_id, anchor_node, order, text in rows:
            holders[doc_id, anchor_node, order] = text
    else:
        kept: dict[tuple, tuple] = {}
        for row in rows:
            doc_id, anchor_node, order, text_node, text, seq_node, residues \
                = row[:7]
            key = (doc_id, anchor_node, order)
            if key not in kept:
                kept[key] = (row[7:], seq_node, [], {})
            route, first_seq, texts, sequences = kept[key]
            if route != row[7:]:
                continue
            # the two LEFT JOINs cross texts with sequences: take each
            # text beside the first sequence only; a sequence is one row
            # per node, so its node id folds the repeats
            if text_node is not None and seq_node == first_seq:
                texts.append((text_node, text))
            if seq_node is not None:
                sequences[seq_node] = residues
        for key, (__, __, texts, sequences) in kept.items():
            parts = texts + list(sequences.items())
            if len(parts) > 1:
                parts.sort(key=itemgetter(0))   # stable within a node
            holders[key] = "".join(text for __, text in parts)

    values: dict[tuple, list[str]] = {}
    for doc_id, anchor_node, order in sorted(holders):
        values.setdefault((doc_id, anchor_node), []).append(
            holders[doc_id, anchor_node, order])
    return values
