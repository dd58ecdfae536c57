"""Native-XML baseline: evaluate XomatiQ queries by tree-walking.

The paper argues for shredding into an RDBMS because "special-purpose
XML query processors are not mature enough to process large volumes of
data". This module is that comparison point: the same query language
evaluated directly over in-memory parsed documents with nested loops
and per-document scans — no relational engine, no indexes beyond what
the tree gives us. Benchmarks E2-E4 race it against the relational
path.

Semantics match the relational path (existential predicate semantics,
descendant-or-self ``//``, same tokenizer) so results can be asserted
equal in tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import UnknownDocumentError
from repro.results.resultset import (
    BoundNode,
    QueryResult,
    ResultRow,
    unique_columns,
)
from repro.shredding.keywords import query_tokens, tokenize
from repro.shredding.typing import numeric_value
from repro.xmlkit import Document, Element, Text
from repro.xmlkit.path import evaluate_elements, evaluate_strings
from repro.xquery.ast import (
    BoolAnd,
    BoolNot,
    BoolOr,
    Compare,
    Condition,
    Contains,
    LiteralOperand,
    OrderCompare,
    Query,
    SeqContains,
    VarPath,
)
from repro.xquery.parser import parse_query


@dataclass
class _StoredDocument:
    doc_id: int
    source: str
    collection: str
    entry_key: str
    document: Document
    #: lazily built: document-order (token, position) stream
    token_stream: list[tuple[str, int]] | None = None


class NativeXmlStore:
    """An in-memory XML 'database': documents grouped by source and
    collection, queried by tree-walking."""

    def __init__(self):
        self._documents: list[_StoredDocument] = []
        self._by_name: dict[tuple[str, str], list[_StoredDocument]] = {}

    # -- loading ---------------------------------------------------------------

    def add_document(self, source: str, collection: str, entry_key: str,
                     document: Document) -> int:
        """Store one parsed document; returns its doc id."""
        doc_id = len(self._documents)
        stored = _StoredDocument(doc_id, source, collection, entry_key,
                                 document)
        self._documents.append(stored)
        self._by_name.setdefault((source, collection), []).append(stored)
        return doc_id

    def load_text(self, source: str, flat_text: str, registry=None) -> int:
        """Transform and store a flat-file release (same transformers
        as the warehouse)."""
        from repro.datahounds.registry import SourceRegistry
        from repro.flatfile import parse_entries
        transformer = (registry or SourceRegistry()).create(source)
        count = 0
        for entry in parse_entries(flat_text):
            document = transformer.transform_entry(entry)
            self.add_document(source, transformer.collection_of(entry),
                              transformer.entry_key(entry), document)
            count += 1
        return count

    def load_corpus(self, corpus) -> dict[str, int]:
        """Load every release of a synthetic corpus."""
        return {source: self.load_text(source, text)
                for source, text in corpus.texts().items()}

    def document_count(self) -> int:
        """Total stored documents."""
        return len(self._documents)

    # -- querying -----------------------------------------------------------------

    def query(self, text: str) -> QueryResult:
        """Parse and evaluate a XomatiQ query by tree-walking."""
        return self.execute(parse_query(text))

    def execute(self, query: Query) -> QueryResult:
        """Evaluate an already-parsed query."""
        evaluator = _Evaluator(self, query)
        return evaluator.run()

    # -- internals --------------------------------------------------------------------

    def _candidates(self, source: str,
                    collection: str | None) -> list[_StoredDocument]:
        if collection is not None:
            docs = self._by_name.get((source, collection))
            if docs is None:
                raise UnknownDocumentError(
                    f'document("{source}.{collection}") is not loaded')
            return docs
        docs = [d for d in self._documents if d.source == source]
        if not docs:
            raise UnknownDocumentError(
                f'document("{source}") is not loaded')
        return docs


def _document_tokens(stored: _StoredDocument) -> list[tuple[str, int]]:
    """Document-order (token, position) stream, matching the shredder's
    keyword positions (attributes first, then text, per element)."""
    if stored.token_stream is None:
        stream: list[tuple[str, int]] = []
        position = 0

        def walk(element: Element) -> None:
            nonlocal position
            for value in element.attributes.values():
                for token in tokenize(value):
                    stream.append((token, position))
                    position += 1
            if element.tag == "sequence":
                return  # mirror the shredder's sequence split
            for child in element.children:
                if isinstance(child, Text):
                    for token in tokenize(child.value):
                        stream.append((token, position))
                        position += 1
                else:
                    walk(child)

        walk(stored.document.root)
        stored.token_stream = stream
    return stored.token_stream


def _subtree_tokens(element: Element) -> set[str]:
    """Token set of one element subtree (attributes + non-sequence
    text)."""
    tokens: set[str] = set()

    def walk(node: Element) -> None:
        for value in node.attributes.values():
            tokens.update(tokenize(value))
        if node.tag == "sequence":
            return
        for child in node.children:
            if isinstance(child, Text):
                tokens.update(tokenize(child.value))
            else:
                walk(child)

    walk(element)
    return tokens


@dataclass
class _BindingCandidate:
    stored: _StoredDocument
    element: Element
    node_id: int


class _Evaluator:
    """Nested-loop FLWR evaluation with early condition checking."""

    def __init__(self, store: NativeXmlStore, query: Query):
        self.store = store
        self.query = query
        self.bindings = {b.var: b for b in query.bindings}
        self.variables = query.variables()
        self.conditions = (_flatten_and(query.where)
                           if query.where is not None else [])

    def run(self) -> QueryResult:
        columns = unique_columns([item.output_name
                                  for item in self.query.returns])
        result = QueryResult(columns=columns, variables=list(self.variables))
        self._loop({}, 0, result, columns)
        return result

    def _loop(self, env: dict[str, _BindingCandidate], index: int,
              result: QueryResult, columns: list[str]) -> None:
        if index == len(self.variables):
            # every condition was checked as soon as its last variable
            # was bound, so reaching the leaf means the row qualifies
            self._emit(env, result, columns)
            return
        var = self.variables[index]
        for candidate in self._candidates_for(var, env):
            env[var] = candidate
            bound = set(list(env))
            early_ok = True
            for condition in self.conditions:
                if _vars_of(condition) <= bound and var in _vars_of(condition):
                    if not self._check(condition, env):
                        early_ok = False
                        break
            if early_ok:
                self._loop(env, index + 1, result, columns)
            del env[var]

    def _candidates_for(self, var: str,
                        env: dict[str, _BindingCandidate]
                        ) -> list[_BindingCandidate]:
        binding = self.bindings[var]
        if binding.context_var is not None:
            context = env[binding.context_var]
            elements = (evaluate_elements(binding.path, context.element)
                        if binding.path is not None else [context.element])
            return [_BindingCandidate(context.stored, element,
                                      _preorder_rank(context.stored, element))
                    for element in elements]
        candidates: list[_BindingCandidate] = []
        for stored in self.store._candidates(binding.document.source,
                                             binding.document.collection):
            if binding.path is None:
                candidates.append(_BindingCandidate(stored,
                                                    stored.document.root, 0))
                continue
            for element in _document_path_elements(stored.document,
                                                   binding.path):
                candidates.append(_BindingCandidate(
                    stored, element, _preorder_rank(stored, element)))
        return candidates

    # -- condition checking --------------------------------------------------------

    def _check(self, condition: Condition,
               env: dict[str, _BindingCandidate]) -> bool:
        if isinstance(condition, BoolAnd):
            return all(self._check(i, env) for i in condition.items)
        if isinstance(condition, BoolOr):
            return any(self._check(i, env) for i in condition.items)
        if isinstance(condition, BoolNot):
            return not self._check(condition.item, env)
        if isinstance(condition, Contains):
            return self._check_contains(condition, env)
        if isinstance(condition, Compare):
            return self._check_compare(condition, env)
        if isinstance(condition, OrderCompare):
            return self._check_order(condition, env)
        if isinstance(condition, SeqContains):
            return self._check_seqcontains(condition, env)
        raise TypeError(f"unknown condition {type(condition).__name__}")

    def _check_seqcontains(self, condition: SeqContains,
                           env: dict[str, _BindingCandidate]) -> bool:
        import re
        candidate = env[condition.target.var]
        if condition.target.path is None:
            holders = [candidate.element]
        else:
            holders = evaluate_elements(condition.target.path,
                                        candidate.element)
        pattern = re.compile(
            "".join("." if ch == "." else re.escape(ch)
                    for ch in condition.motif),
            re.IGNORECASE)
        return any(pattern.search(holder.full_text()) for holder in holders)

    def _check_order(self, condition: OrderCompare,
                     env: dict[str, _BindingCandidate]) -> bool:
        left_candidate = env[condition.left.var]
        right_candidate = env[condition.right.var]
        if left_candidate.stored is not right_candidate.stored:
            return False   # order is only defined within one document
        left_elements = (
            [left_candidate.element] if condition.left.path is None
            else evaluate_elements(condition.left.path,
                                   left_candidate.element))
        right_elements = (
            [right_candidate.element] if condition.right.path is None
            else evaluate_elements(condition.right.path,
                                   right_candidate.element))
        stored = left_candidate.stored
        left_ranks = [_preorder_rank(stored, e) for e in left_elements]
        right_ranks = [_preorder_rank(stored, e) for e in right_elements]
        if condition.op == "before":
            return any(lr < rr for lr in left_ranks for rr in right_ranks)
        return any(lr > rr for lr in left_ranks for rr in right_ranks)

    def _check_contains(self, condition: Contains,
                        env: dict[str, _BindingCandidate]) -> bool:
        candidate = env[condition.target.var]
        tokens = query_tokens(condition.phrase)
        if isinstance(condition.scope, int):
            stream = _document_tokens(candidate.stored)
            positions = [[p for t, p in stream if t == token]
                         for token in tokens]
            if any(not p for p in positions):
                return False
            window = condition.scope
            return any(
                all(any(abs(p - first) <= window for p in other)
                    for other in positions[1:])
                for first in positions[0])
        if condition.scope == "any":
            doc_tokens = {t for t, __ in _document_tokens(candidate.stored)}
            return all(token in doc_tokens for token in tokens)
        if condition.target.path is None:
            scope_elements = [candidate.element]
        else:
            scope_elements = evaluate_elements(condition.target.path,
                                               candidate.element)
        return any(
            all(token in _subtree_tokens(element) for token in tokens)
            for element in scope_elements)

    def _check_compare(self, condition: Compare,
                       env: dict[str, _BindingCandidate]) -> bool:
        left_values = self._operand_values(condition.left, env)
        right_values = self._operand_values(condition.right, env)
        numeric = (self._is_numeric_literal(condition.left)
                   or self._is_numeric_literal(condition.right))
        op = condition.op
        for left in left_values:
            for right in right_values:
                if _compare(op, left, right, numeric):
                    return True
        return False

    @staticmethod
    def _is_numeric_literal(operand) -> bool:
        return isinstance(operand, LiteralOperand) and operand.is_numeric

    def _operand_values(self, operand,
                        env: dict[str, _BindingCandidate]) -> list:
        """Comparison operands: literals, attribute values, or the
        *direct* text of matched elements.

        Comparisons deliberately operate on leaf values (an element
        with no text of its own contributes no value), matching the
        relational path where comparisons join the element's own
        ``text_values`` rows. This matches how the paper's example
        queries compare leaf elements (``enzyme_id``, qualifiers); the
        XQuery string-value (subtree concatenation) is used only for
        RETURN items.
        """
        if isinstance(operand, LiteralOperand):
            return [operand.value]
        candidate = env[operand.var]
        if operand.path is None:
            elements = [candidate.element]
        elif operand.path.is_attribute_path:
            return evaluate_strings(operand.path, candidate.element)
        else:
            elements = evaluate_elements(operand.path, candidate.element)
        values = []
        for element in elements:
            if any(isinstance(c, Text) and c.value for c in element.children):
                values.append(element.text())
        return values

    # -- output ------------------------------------------------------------------------

    def _emit(self, env: dict[str, _BindingCandidate],
              result: QueryResult, columns: list[str]) -> None:
        row = ResultRow(bindings={
            var: BoundNode(doc_id=env[var].stored.doc_id,
                           node_id=env[var].node_id)
            for var in self.variables})
        for column, item in zip(columns, self.query.returns):
            if item.constructor is not None:
                element = self._construct(item.constructor, env)
                row.elements[column] = element
                from repro.xmlkit.serializer import serialize_compact
                row.values[column] = [serialize_compact(element)]
                continue
            row.values[column] = self._varpath_values(item.value, env)
        result.rows.append(row)

    def _varpath_values(self, varpath: VarPath,
                        env: dict[str, _BindingCandidate]) -> list[str]:
        candidate = env[varpath.var]
        if varpath.path is None:
            return [candidate.element.full_text()]
        return evaluate_strings(varpath.path, candidate.element)

    def _construct(self, constructor,
                   env: dict[str, _BindingCandidate]) -> Element:
        element = Element(constructor.tag)
        for name, value in constructor.attributes:
            if isinstance(value, VarPath):
                values = self._varpath_values(value, env)
                if values:
                    element.set(name, values[0])
            else:
                element.set(name, value)
        for child in constructor.children:
            if isinstance(child, VarPath):
                tag = (child.path.last_name if child.path is not None
                       else child.var)
                for value in self._varpath_values(child, env):
                    element.subelement(tag, text=value if value else None)
            else:
                element.append(self._construct(child, env))
        return element


def _compare(op: str, left, right, numeric: bool) -> bool:
    if numeric:
        left_num = left if isinstance(left, float) else numeric_value(str(left))
        right_num = (right if isinstance(right, float)
                     else numeric_value(str(right)))
        if left_num is None or right_num is None:
            return False
        left, right = left_num, right_num
    else:
        left, right = str(left), str(right)
    if op == "=":
        return left == right
    if op == "!=":
        return left != right
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    return left >= right


def _flatten_and(condition: Condition) -> list[Condition]:
    if isinstance(condition, BoolAnd):
        out: list[Condition] = []
        for item in condition.items:
            out.extend(_flatten_and(item))
        return out
    return [condition]


def _vars_of(condition: Condition) -> set[str]:
    out: set[str] = set()

    def walk(node: Condition) -> None:
        if isinstance(node, (Contains, SeqContains)):
            out.add(node.target.var)
        elif isinstance(node, Compare):
            for operand in (node.left, node.right):
                if isinstance(operand, VarPath):
                    out.add(operand.var)
        elif isinstance(node, OrderCompare):
            out.add(node.left.var)
            out.add(node.right.var)
        elif isinstance(node, (BoolAnd, BoolOr)):
            for item in node.items:
                walk(item)
        elif isinstance(node, BoolNot):
            walk(node.item)
        else:
            # fail loudly: silently skipping an unknown condition type
            # would drop the condition from evaluation entirely
            raise TypeError(
                f"unknown condition type {type(node).__name__}")

    walk(condition)
    return out


def _document_path_elements(document: Document, path) -> list[Element]:
    """Binding-path evaluation with document-node semantics (leading
    child step selects the root element itself)."""
    from repro.xmlkit.path import Path
    first, *rest = path.steps
    if first.descendant:
        root_matches = [e for e in document.root.iter()
                        if first.name == "*" or e.tag == first.name]
        root_matches = [e for e in root_matches
                        if all(p.matches(e) for p in first.predicates)]
    else:
        root = document.root
        matches = (first.name == "*" or root.tag == first.name)
        matches = matches and all(p.matches(root)
                                  for p in first.predicates)
        root_matches = [root] if matches else []
    if not rest:
        return root_matches
    remainder = Path(tuple(rest))
    # nested matches of the first step reach the same element twice; a
    # node binds once (by identity — equal siblings are distinct nodes)
    out: dict[int, Element] = {}
    for element in root_matches:
        for found in evaluate_elements(remainder, element):
            out.setdefault(id(found), found)
    return list(out.values())


def _preorder_rank(stored: _StoredDocument, element: Element) -> int:
    """The element's pre-order rank (equals the relational node_id)."""
    rank = 0
    for __, node in stored.document.walk():
        if isinstance(node, Element):
            if node is element:
                return rank
            rank += 1
    return -1
