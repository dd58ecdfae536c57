"""The XQ2SQL-transformer: compile XomatiQ queries to SQL (paper §3.2).

Strategy (in the spirit of the systems the paper cites — Agora,
Shanmugasundaram et al., Zhang et al.):

* The WHERE condition is normalized to **disjunctive normal form**.
  Each disjunct compiles to one *binding query*: a single SELECT over
  the generic schema whose result rows identify, for every FOR
  variable, the bound element (``doc_id, node_id, doc_order,
  subtree_end``). Conjunctive atoms become joins; OR becomes a union
  of binding queries (performed by the engine); NOT becomes a set
  difference against an auxiliary binding query.
* Every RETURN path compiles to **one** *value statement*: the
  variable's binding chain, the path to the *holder* elements, and the
  holder's ``[doc_order, subtree_end]`` interval ``LEFT JOIN``-ed to
  ``text_values`` and ``sequences`` — a holder without text arrives as
  one NULL-piece row, so no separate "which holders exist" query runs.
  It is restricted to the documents that actually carry bindings by a
  fixed-width ``IN (?, ...)`` block of :data:`DOC_CHUNK` bound doc ids,
  so its text never changes and both engines keep it prepared. One
  statement per path (not one per query) keeps multi-valued items from
  multiplying each other (XQuery nests them; SQL would cross them).

Everything that touches data is SQL — Python only unions, subtracts
and merges id tuples, which is the division of labour the paper
describes (RDBMS evaluates; the tagger assembles).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import TranslationError
from repro.shredding.keywords import query_tokens
from repro.shredding.shredder import DEFAULT_SEQUENCE_TAGS
from repro.xquery.ast import (
    Binding,
    BoolAnd,
    BoolNot,
    BoolOr,
    Compare,
    Condition,
    Contains,
    LiteralOperand,
    OrderCompare,
    Query,
    ReturnItem,
    SeqContains,
    ValueIn,
    VarPath,
)
from repro.translator.sqlgen import ChainBuilder, ElementRef, SqlBuilder

MAX_DISJUNCTS = 64

#: columns selected per variable in a binding query
VAR_COLUMNS = 4

#: doc ids bound per value statement — the width of its ``IN (?, ...)``
#: block (well under engine parameter limits; the executor pads the
#: last chunk so the statement text is constant)
DOC_CHUNK = 200


def motif_to_like(motif: str) -> str:
    """A sequence motif as a LIKE pattern: ``.`` matches any residue,
    everything else is literal (``%``/``_`` in the motif are escaped by
    mapping them to themselves-as-text via ``.``-free translation —
    they are not valid residue codes, so reject them)."""
    from repro.errors import TranslationError
    if "%" in motif or "_" in motif:
        raise TranslationError(
            "seqcontains() motifs use '.' as the wildcard; "
            "'%' and '_' are not residue codes")
    translated = motif.replace(".", "_")
    return f"%{translated}%"


@dataclass
class BindingSql:
    """One SELECT producing binding tuples."""

    sql: str
    params: tuple


@dataclass
class CompiledDisjunct:
    """A positive binding query plus the binding queries to subtract
    (one per negated atom in the disjunct)."""

    positive: BindingSql
    negations: list[BindingSql] = field(default_factory=list)


@dataclass
class CompiledValue:
    """The one SQL statement fetching a VarPath's values.

    Element paths (``attribute`` false) select ``anchor doc_id, anchor
    node_id, holder doc_order, text node_id, text, sequence node_id,
    residues`` and then the *route*: the node ids of the chain's
    :attr:`~repro.translator.sqlgen.ChainBuilder.fanout` elements. A
    holder's value is its subtree text (XQuery string value — ``""``
    for an empty element): the executor concatenates the pieces of one
    route per holder. Attribute paths select ``anchor doc_id, anchor
    node_id, holder doc_order, value`` (a missing attribute yields no
    row). ``params`` are followed by :data:`DOC_CHUNK` doc ids.
    """

    varpath: VarPath
    sql: str
    params: tuple
    attribute: bool = False

    def bind(self, doc_ids: tuple = ()) -> tuple:
        """All parameters for at most :data:`DOC_CHUNK` doc ids, padded
        with NULLs (which match no document)."""
        return self.params + doc_ids + (None,) * (DOC_CHUNK - len(doc_ids))


@dataclass
class CompiledItem:
    """One RETURN item: a single value statement for a plain item,
    several for a constructor (one per embedded expression)."""

    item: ReturnItem
    values: list[CompiledValue]


@dataclass
class CompiledQuery:
    """The full translation of one XomatiQ query."""

    query: Query
    variables: list[str]
    disjuncts: list[CompiledDisjunct]
    items: list[CompiledItem]

    def statements(self) -> list[str]:
        """Every SQL statement, for display/EXPLAIN."""
        return [sql for sql, __ in self.parameterized_statements()]

    def parameterized_statements(self) -> list[tuple[str, tuple]]:
        """Every SQL statement with its bound parameters — what the
        slow-query log needs to re-run EXPLAIN faithfully."""
        out: list[tuple[str, tuple]] = []
        for disjunct in self.disjuncts:
            out.append((disjunct.positive.sql, disjunct.positive.params))
            out.extend((n.sql, n.params) for n in disjunct.negations)
        out.extend((value.sql, value.bind())
                   for item in self.items for value in item.values)
        return out


def compile_query(query: Query,
                  sequence_tags: frozenset[str] = DEFAULT_SEQUENCE_TAGS
                  ) -> CompiledQuery:
    """Translate a checked query into SQL."""
    compiler = _Compiler(query, sequence_tags)
    return compiler.run()


# --------------------------------------------------------------------------
# DNF normalization
# --------------------------------------------------------------------------

#: an atom with polarity: (condition, negated)
_SignedAtom = tuple[Condition, bool]


def to_dnf(condition: Condition) -> list[list[_SignedAtom]]:
    """Disjunctive normal form with negation pushed to the atoms."""
    nnf = _push_not(condition, negate=False)
    disjuncts = _distribute(nnf)
    if len(disjuncts) > MAX_DISJUNCTS:
        raise TranslationError(
            f"condition expands to {len(disjuncts)} disjuncts "
            f"(limit {MAX_DISJUNCTS}); simplify the query")
    return disjuncts


def _push_not(condition: Condition, negate: bool):
    if isinstance(condition, BoolNot):
        return _push_not(condition.item, not negate)
    if isinstance(condition, BoolAnd):
        items = [_push_not(item, negate) for item in condition.items]
        return ("or" if negate else "and", items)
    if isinstance(condition, BoolOr):
        items = [_push_not(item, negate) for item in condition.items]
        return ("and" if negate else "or", items)
    return ("atom", (condition, negate))


def _distribute(node) -> list[list[_SignedAtom]]:
    kind, payload = node
    if kind == "atom":
        return [[payload]]
    if kind == "or":
        result: list[list[_SignedAtom]] = []
        for item in payload:
            result.extend(_distribute(item))
        return result
    # and: cartesian product of the children's disjunct lists
    result = [[]]
    for item in payload:
        child = _distribute(item)
        result = [left + right for left in result for right in child]
        if len(result) > MAX_DISJUNCTS:
            raise TranslationError(
                "condition is too complex to normalize; simplify the query")
    return result


# --------------------------------------------------------------------------
# The compiler
# --------------------------------------------------------------------------


class _Compiler:
    def __init__(self, query: Query, sequence_tags: frozenset[str]):
        self.query = query
        self.sequence_tags = sequence_tags
        self.bindings: dict[str, Binding] = {
            binding.var: binding for binding in query.bindings}
        self.variables = query.variables()

    def run(self) -> CompiledQuery:
        if self.query.where is None:
            disjunct_atoms: list[list[_SignedAtom]] = [[]]
        else:
            disjunct_atoms = to_dnf(self.query.where)

        disjuncts = [self._compile_disjunct(atoms)
                     for atoms in disjunct_atoms]
        items = [self._compile_item(item) for item in self.query.returns]
        return CompiledQuery(query=self.query, variables=self.variables,
                             disjuncts=disjuncts, items=items)

    # -- binding queries -----------------------------------------------------

    def _compile_disjunct(self,
                          atoms: list[_SignedAtom]) -> CompiledDisjunct:
        positive_atoms = [atom for atom, negated in atoms if not negated]
        negated_atoms = [atom for atom, negated in atoms if negated]
        positive = self._binding_sql(positive_atoms)
        negations = [self._binding_sql(positive_atoms + [atom])
                     for atom in negated_atoms]
        return CompiledDisjunct(positive=positive, negations=negations)

    def _binding_sql(self, atoms: list[Condition]) -> BindingSql:
        builder = SqlBuilder(distinct=True)
        chains = ChainBuilder(builder)
        var_refs: dict[str, ElementRef] = {}

        def ref_for(var: str) -> ElementRef:
            if var not in var_refs:
                binding = self.bindings.get(var)
                if binding is None:
                    raise TranslationError(f"unbound variable ${var}")
                if binding.context_var is not None:
                    context = ref_for(binding.context_var)
                    var_refs[var] = chains.walk(context, binding.path)
                else:
                    var_refs[var] = chains.document_path(
                        binding.document.source,
                        binding.document.collection, binding.path)
            return var_refs[var]

        # materialize every variable (cross product when unconstrained)
        for var in self.variables:
            ref_for(var)
        for atom in atoms:
            self._apply_atom(atom, builder, chains, ref_for)
        for var in self.variables:
            ref = var_refs[var]
            builder.select.extend([ref.doc_id, ref.node_id, ref.doc_order,
                                   ref.subtree_end])
        return BindingSql(sql=builder.sql(), params=tuple(builder.params))

    def _apply_atom(self, atom: Condition, builder: SqlBuilder,
                    chains: ChainBuilder, ref_for) -> None:
        if isinstance(atom, Contains):
            self._apply_contains(atom, builder, chains, ref_for)
        elif isinstance(atom, Compare):
            self._apply_compare(atom, builder, chains, ref_for)
        elif isinstance(atom, OrderCompare):
            self._apply_order(atom, builder, chains, ref_for)
        elif isinstance(atom, SeqContains):
            self._apply_seqcontains(atom, builder, chains, ref_for)
        elif isinstance(atom, ValueIn):
            self._apply_value_in(atom, builder, chains, ref_for)
        else:
            raise TranslationError(
                f"cannot translate condition {type(atom).__name__}")

    def _apply_seqcontains(self, atom: SeqContains, builder: SqlBuilder,
                           chains: ChainBuilder, ref_for) -> None:
        """Motif search over the sequences table: the holder element's
        residues must contain the motif (LIKE, ``.`` = any residue).
        The predicate runs entirely inside the sequences table — the
        point of the paper's sequence/non-sequence split."""
        if atom.target.path is not None and atom.target.path.is_attribute_path:
            raise TranslationError(
                "seqcontains() target must be an element path")
        holder = chains.walk(ref_for(atom.target.var), atom.target.path)
        seq = builder.add_table("sequences", "s")
        builder.where(f"{seq}.doc_id = {holder.doc_id}")
        builder.where(f"{seq}.node_id = {holder.node_id}")
        builder.where(f"{seq}.residues LIKE ?", motif_to_like(atom.motif))

    def _apply_value_in(self, atom: ValueIn, builder: SqlBuilder,
                        chains: ChainBuilder, ref_for) -> None:
        """IN-list membership over the target's text values — the
        planner-injected semi-join fragment. Existential like an
        equality join: joins ``text_values``/``attributes`` and asks
        the value column to hit the parameterized list.

        The ``on_entry_key`` form instead restricts the target's
        *document* to a set of entry keys (the subscription engine's
        incremental-refresh splice): it joins ``documents`` on the
        binding's doc_id and asks ``entry_key`` to hit the list."""
        if atom.on_entry_key:
            if atom.target.path is not None:
                raise TranslationError(
                    "entry-key membership applies to a bound variable, "
                    "not a path inside it")
            ref = ref_for(atom.target.var)
            doc = builder.add_table("documents", "d")
            builder.where(f"{doc}.doc_id = {ref.doc_id}")
            builder.where_in(f"{doc}.entry_key", atom.values)
            return
        value = chains.value_of(ref_for(atom.target.var), atom.target.path)
        builder.where_in(value.text, atom.values)

    def _apply_order(self, atom: OrderCompare, builder: SqlBuilder,
                     chains: ChainBuilder, ref_for) -> None:
        """BEFORE/AFTER: document-order comparison of two element
        holders within the same document — exactly what the schema's
        ``doc_order`` column preserves."""
        for operand in (atom.left, atom.right):
            if operand.path is not None and operand.path.is_attribute_path:
                raise TranslationError(
                    f"{atom.op.upper()} compares elements, not attributes")
        left = chains.walk(ref_for(atom.left.var), atom.left.path)
        right = chains.walk(ref_for(atom.right.var), atom.right.path)
        builder.where(f"{left.doc_id} = {right.doc_id}")
        op = "<" if atom.op == "before" else ">"
        builder.where(f"{left.doc_order} {op} {right.doc_order}")

    def _apply_contains(self, atom: Contains, builder: SqlBuilder,
                        chains: ChainBuilder, ref_for) -> None:
        tokens = query_tokens(atom.phrase)
        if not tokens:
            raise TranslationError(
                f'contains() phrase {atom.phrase!r} has no searchable '
                f'keywords')
        anchor = ref_for(atom.target.var)
        if atom.scope == "any":
            interval = None
        elif atom.target.path is None:
            interval = anchor
        else:
            if atom.target.path.is_attribute_path:
                raise TranslationError(
                    "contains() target must be an element path")
            interval = chains.walk(anchor, atom.target.path)
        keyword_aliases = [
            chains.keyword(anchor.doc_id, token, interval)
            for token in tokens]
        if isinstance(atom.scope, int):
            window = atom.scope
            first = keyword_aliases[0]
            for other in keyword_aliases[1:]:
                builder.where(
                    f"abs({other}.position - {first}.position) <= ?",
                    window)

    def _apply_compare(self, atom: Compare, builder: SqlBuilder,
                       chains: ChainBuilder, ref_for) -> None:
        """Comparisons operate on *leaf* values: an element operand is
        joined to its own ``text_values`` rows (no value → no match),
        an attribute operand to its ``attributes`` row. Subtree string
        values exist only in RETURN items; a comparison against a
        container element is almost certainly a query error and matches
        nothing, which the DTD-aware builders make hard to write."""
        left, right = atom.left, atom.right
        if isinstance(left, LiteralOperand) and isinstance(
                right, LiteralOperand):
            raise TranslationError(
                "comparison between two literals is constant; remove it")
        # normalize literal to the right
        op = atom.op
        if isinstance(left, LiteralOperand):
            left, right = right, left
            op = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}.get(op, op)

        left_value = chains.value_of(ref_for(left.var), left.path)
        if isinstance(right, LiteralOperand):
            if right.is_numeric and left_value.numeric is not None:
                builder.where(f"{left_value.numeric} {op} ?", right.value)
            else:
                builder.where(f"{left_value.text} {op} ?", str(right.value))
            return
        right_value = chains.value_of(ref_for(right.var), right.path)
        builder.where(f"{left_value.text} {op} {right_value.text}")

    # -- item queries -----------------------------------------------------------

    def _compile_item(self, item: ReturnItem) -> CompiledItem:
        if item.constructor is not None:
            values = [self._compile_value(varpath)
                      for varpath in item.constructor.varpaths()]
            return CompiledItem(item=item, values=values)
        return CompiledItem(item=item,
                            values=[self._compile_value(item.value)])

    def _compile_value(self, value: VarPath) -> CompiledValue:
        builder = SqlBuilder()
        chains = ChainBuilder(builder)
        anchor = self._anchor_chain(value.var, chains)
        attribute = value.path is not None and value.path.is_attribute_path
        if attribute:
            value_ref = chains.value_of(anchor, value.path)
            builder.select = [anchor.doc_id, anchor.node_id,
                              value_ref.holder.doc_order, value_ref.text]
        else:
            holder = chains.walk(anchor, value.path)
            builder.select = [anchor.doc_id, anchor.node_id,
                              holder.doc_order]
            for table, column in (("text_values", "value"),
                                  ("sequences", "residues")):
                piece = builder.alias(table[0])
                builder.left_join(table, piece, [
                    f"{piece}.doc_id = {holder.doc_id}",
                    f"{piece}.node_id >= {holder.doc_order}",
                    f"{piece}.node_id <= {holder.subtree_end}"])
                builder.select += [f"{piece}.node_id", f"{piece}.{column}"]
            builder.select += [
                ref.node_id for ref in chains.fanout
                if ref.alias not in (anchor.alias, holder.alias)]
        document = next(alias for table, alias in builder.tables
                        if table == "documents")
        builder.conjuncts.append(
            f"{document}.doc_id IN ({', '.join('?' * DOC_CHUNK)})")
        return CompiledValue(varpath=value, sql=builder.sql(),
                             params=tuple(builder.params),
                             attribute=attribute)

    def _anchor_chain(self, var: str, chains: ChainBuilder) -> ElementRef:
        """Rebuild the binding chain of ``var`` (and its context
        ancestry) inside an item query."""
        binding = self.bindings.get(var)
        if binding is None:
            raise TranslationError(f"unbound variable ${var}")
        if binding.context_var is not None:
            context = self._anchor_chain(binding.context_var, chains)
            return chains.walk(context, binding.path)
        return chains.document_path(binding.document.source,
                                    binding.document.collection,
                                    binding.path)
