"""SQL generation helpers for the XQ2SQL-transformer.

:class:`SqlBuilder` accumulates table aliases, join/filter conjuncts
and positional parameters, then renders one SELECT statement in the
dialect both backends accept. The path-to-join encoding lives in
:class:`ChainBuilder`:

* a *child* step becomes ``c.doc_id = p.doc_id AND c.parent_id =
  p.node_id AND c.tag = ?``,
* a *descendant* step becomes the interval predicate ``c.doc_id =
  p.doc_id AND c.doc_order >= p.doc_order AND c.doc_order <=
  p.subtree_end AND c.tag = ?`` (descendant-or-self, matching the
  tree evaluator in :mod:`repro.xmlkit.path`),
* a step predicate ``[@a = "v"]`` joins the ``attributes`` table;
  ``[child = "v"]`` joins a child element and its text.

Values are reached through ``text_values`` (elements) or ``attributes``
(attribute steps); ``contains`` goes through ``keywords``. A RETURN
item's value tables are *outer*-joined (``LEFT JOIN ... ON``, rendered
after the comma-joined chain) so an element without text still yields
its row.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import TranslationError
from repro.xmlkit.path import Path, PositionPredicate, Step


@dataclass
class SqlBuilder:
    """One SELECT under construction."""

    select: list[str] = field(default_factory=list)
    tables: list[tuple[str, str]] = field(default_factory=list)  # (table, alias)
    #: (table, alias, ON conjuncts), rendered after ``tables``
    left_joins: list[tuple[str, str, list[str]]] = field(default_factory=list)
    conjuncts: list[str] = field(default_factory=list)
    params: list = field(default_factory=list)
    distinct: bool = False
    _alias_counts: dict[str, int] = field(default_factory=dict)

    def alias(self, prefix: str) -> str:
        """A fresh alias with the given prefix (e0, e1, ...)."""
        count = self._alias_counts.get(prefix, 0)
        self._alias_counts[prefix] = count + 1
        return f"{prefix}{count}"

    def add_table(self, table: str, prefix: str) -> str:
        """Add a FROM entry; returns its alias."""
        alias = self.alias(prefix)
        self.tables.append((table, alias))
        return alias

    def left_join(self, table: str, alias: str, on: list[str]) -> None:
        """Add ``LEFT JOIN table alias ON on[0] AND ...`` (``alias``
        from :meth:`alias`; ON conjuncts take no parameters)."""
        self.left_joins.append((table, alias, on))

    def where(self, conjunct: str, *params) -> None:
        """Add one WHERE conjunct with its parameters."""
        self.conjuncts.append(conjunct)
        self.params.extend(params)

    def where_in(self, column: str, values) -> None:
        """Add a parameterized membership conjunct ``column IN (?,...)``
        (the federation optimizer's semi-join IN-list fragment). An
        empty value list matches nothing — SQL has no empty IN-list, so
        it renders as a constant-false conjunct instead."""
        values = tuple(values)
        if not values:
            self.conjuncts.append("1 = 0")
            return
        placeholders = ", ".join("?" for __ in values)
        self.conjuncts.append(f"{column} IN ({placeholders})")
        self.params.extend(values)

    def sql(self) -> str:
        """Render the accumulated SELECT."""
        if not self.tables:
            raise TranslationError("query uses no tables")
        head = "SELECT DISTINCT " if self.distinct else "SELECT "
        first_table, first_alias = self.tables[0]
        lines = [head + ", ".join(self.select),
                 f"FROM {first_table} {first_alias}"]
        for table, alias in self.tables[1:]:
            lines.append(f", {table} {alias}")
        for table, alias, on in self.left_joins:
            lines.append(f"LEFT JOIN {table} {alias} ON " + " AND ".join(on))
        if self.conjuncts:
            lines.append("WHERE " + "\n  AND ".join(self.conjuncts))
        return "\n".join(lines)


@dataclass
class ElementRef:
    """An element alias in the query, with its interval columns."""

    alias: str

    @property
    def doc_id(self) -> str:
        """Column expression for the element's document id."""
        return f"{self.alias}.doc_id"

    @property
    def node_id(self) -> str:
        """Column expression for the element's node id."""
        return f"{self.alias}.node_id"

    @property
    def doc_order(self) -> str:
        """Column expression for the pre-order rank."""
        return f"{self.alias}.doc_order"

    @property
    def subtree_end(self) -> str:
        """Column expression for the interval end."""
        return f"{self.alias}.subtree_end"


@dataclass
class ValueRef:
    """Where a path's value can be read: a column expression on some
    alias, plus the numeric twin when available."""

    alias: str
    text_column: str
    numeric_column: str | None
    holder: ElementRef    # the element owning the value

    @property
    def text(self) -> str:
        """Column expression holding the string value."""
        return f"{self.alias}.{self.text_column}"

    @property
    def numeric(self) -> str | None:
        """Column expression holding the numeric twin, if any."""
        if self.numeric_column is None:
            return None
        return f"{self.alias}.{self.numeric_column}"


class ChainBuilder:
    """Encodes path navigation as joins on one :class:`SqlBuilder`."""

    def __init__(self, builder: SqlBuilder):
        self.builder = builder
        #: elements through which a later element of the chain can be
        #: reached more than once — the context of every descendant step
        #: (nested ``a`` make two routes to a ``b`` under ``//a//b``) and
        #: every predicate child (two children may satisfy ``[c = "v"]``)
        self.fanout: list[ElementRef] = []

    # -- roots -------------------------------------------------------------

    def document_root(self, source: str,
                      collection: str | None) -> ElementRef:
        """The root element of every document of a source
        (optionally one collection)."""
        b = self.builder
        doc = b.add_table("documents", "d")
        root = ElementRef(b.add_table("elements", "e"))
        b.where(f"{doc}.source = ?", source)
        if collection is not None:
            b.where(f"{doc}.collection = ?", collection)
        b.where(f"{root.doc_id} = {doc}.doc_id")
        b.where(f"{root.alias}.parent_id IS NULL")
        return root

    def document_path(self, source: str, collection: str | None,
                      path: Path | None) -> ElementRef:
        """A binding chain rooted at ``document(...)``.

        XPath semantics: ``document()`` yields the *document node*, so
        a leading child step (``/hlx_enzyme``) selects the root element
        itself (constraining its tag), and a leading descendant step
        (``//x``) selects elements at any depth of the document.
        """
        if path is None:
            return self.document_root(source, collection)
        if path.is_attribute_path:
            raise TranslationError(
                f"binding path {path} must address elements")
        first, *rest = path.steps
        b = self.builder
        if first.descendant:
            doc = b.add_table("documents", "d")
            b.where(f"{doc}.source = ?", source)
            if collection is not None:
                b.where(f"{doc}.collection = ?", collection)
            target = ElementRef(b.add_table("elements", "e"))
            b.where(f"{target.doc_id} = {doc}.doc_id")
            if first.name != "*":
                b.where(f"{target.alias}.tag = ?", first.name)
            for predicate in first.predicates:
                self.apply_predicate(target, predicate)
        else:
            target = self.document_root(source, collection)
            if first.name != "*":
                b.where(f"{target.alias}.tag = ?", first.name)
            for predicate in first.predicates:
                self.apply_predicate(target, predicate)
        for step in rest:
            target = self.element_step(target, step)
        return target

    # -- steps ------------------------------------------------------------------

    def element_step(self, context: ElementRef, step: Step) -> ElementRef:
        """One element navigation step from ``context``."""
        b = self.builder
        target = ElementRef(b.add_table("elements", "e"))
        b.where(f"{target.doc_id} = {context.doc_id}")
        if step.descendant:
            self.fanout.append(context)
            b.where(f"{target.doc_order} >= {context.doc_order}")
            b.where(f"{target.doc_order} <= {context.subtree_end}")
        else:
            b.where(f"{target.alias}.parent_id = {context.node_id}")
        if step.name != "*":
            b.where(f"{target.alias}.tag = ?", step.name)
        for predicate in step.predicates:
            self.apply_predicate(target, predicate)
        return target

    def walk(self, context: ElementRef, path: Path | None) -> ElementRef:
        """Follow all element steps of ``path``; the final step must not
        be an attribute step (use :meth:`value_of` for values)."""
        if path is None:
            return context
        if path.is_attribute_path:
            raise TranslationError(
                f"path {path} addresses an attribute where an element "
                f"is required")
        for step in path.steps:
            context = self.element_step(context, step)
        return context

    def value_of(self, context: ElementRef,
                 path: Path | None) -> ValueRef:
        """Joins to read the value addressed by ``path`` from
        ``context`` — attribute value or element text."""
        b = self.builder
        if path is not None and path.is_attribute_path:
            steps = list(path.steps)
            attr_step = steps.pop()
            holder = self._attribute_holder(context, steps, attr_step)
            attr = b.add_table("attributes", "a")
            b.where(f"{attr}.doc_id = {holder.doc_id}")
            b.where(f"{attr}.node_id = {holder.node_id}")
            b.where(f"{attr}.name = ?", attr_step.name)
            return ValueRef(alias=attr, text_column="value",
                            numeric_column="num_value", holder=holder)
        holder = self.walk(context, path)
        text = b.add_table("text_values", "t")
        b.where(f"{text}.doc_id = {holder.doc_id}")
        b.where(f"{text}.node_id = {holder.node_id}")
        return ValueRef(alias=text, text_column="value",
                        numeric_column="num_value", holder=holder)

    def _attribute_holder(self, context: ElementRef, steps: list[Step],
                          attr_step: Step) -> ElementRef:
        """The element carrying an attribute: after any element steps,
        a descendant attribute step (``//@x``) may sit on any element
        of the context subtree."""
        holder = context
        for step in steps:
            holder = self.element_step(holder, step)
        if attr_step.descendant:
            b = self.builder
            any_el = ElementRef(b.add_table("elements", "e"))
            b.where(f"{any_el.doc_id} = {holder.doc_id}")
            b.where(f"{any_el.doc_order} >= {holder.doc_order}")
            b.where(f"{any_el.doc_order} <= {holder.subtree_end}")
            return any_el
        return holder

    def apply_predicate(self, target: ElementRef, predicate) -> None:
        """A step predicate ``[@a = "v"]``, ``[child = "v"]`` or
        positional ``[n]`` (compiled to the ``tag_sib_ord`` rank the
        shredder stores — order as data, per the paper)."""
        b = self.builder
        if isinstance(predicate, PositionPredicate):
            b.where(f"{target.alias}.tag_sib_ord = ?",
                    predicate.position - 1)
            return
        if predicate.on_attribute:
            attr = b.add_table("attributes", "a")
            b.where(f"{attr}.doc_id = {target.doc_id}")
            b.where(f"{attr}.node_id = {target.node_id}")
            b.where(f"{attr}.name = ?", predicate.name)
            b.where(f"{attr}.value = ?", predicate.value)
            return
        child = ElementRef(b.add_table("elements", "e"))
        self.fanout.append(child)
        b.where(f"{child.doc_id} = {target.doc_id}")
        b.where(f"{child.alias}.parent_id = {target.node_id}")
        b.where(f"{child.alias}.tag = ?", predicate.name)
        text = b.add_table("text_values", "t")
        b.where(f"{text}.doc_id = {child.doc_id}")
        b.where(f"{text}.node_id = {child.node_id}")
        b.where(f"{text}.value = ?", predicate.value)

    def keyword(self, scope_doc: str, token: str,
                interval: ElementRef | None = None) -> str:
        """A keyword-index probe; returns the keyword alias.

        ``scope_doc`` is a doc_id column expression; ``interval``
        restricts hits to one element subtree (node scope).
        """
        b = self.builder
        kw = b.add_table("keywords", "k")
        b.where(f"{kw}.doc_id = {scope_doc}")
        b.where(f"{kw}.token = ?", token)
        if interval is not None:
            b.where(f"{kw}.node_id >= {interval.doc_order}")
            b.where(f"{kw}.node_id <= {interval.subtree_end}")
        return kw
