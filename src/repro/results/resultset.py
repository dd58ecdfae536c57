"""Query results.

A :class:`QueryResult` holds one row per surviving FOR-binding
combination. Each row carries

* ``bindings`` — for every FOR variable, the bound element's
  ``(doc_id, node_id)`` (enough to fetch/reconstruct the document the
  GUI's right panel shows when a result is clicked),
* ``values`` — for every RETURN item, the list of values found under
  that binding (XQuery items are naturally multi-valued: an entry has
  many alternate names).
"""

from __future__ import annotations

from dataclasses import dataclass, field


def unique_columns(names: list[str]) -> list[str]:
    """Uniquify result-column names.

    Duplicates get ``_N`` suffixes starting at 2; the suffix is bumped
    until the name is actually fresh — a fixed positional suffix can
    collide with an explicit alias (items named ``a``, ``a_2``, ``a``
    must not yield ``a_2`` twice). Both query evaluators (relational
    and native) use this, so column naming stays differential-testable.
    """
    columns: list[str] = []
    taken: set[str] = set()
    for name in names:
        if name in taken:
            suffix = 2
            while f"{name}_{suffix}" in taken:
                suffix += 1
            name = f"{name}_{suffix}"
        taken.add(name)
        columns.append(name)
    return columns


@dataclass(frozen=True)
class BoundNode:
    """One variable's bound element."""

    doc_id: int
    node_id: int


@dataclass
class ResultRow:
    """One binding combination and its return values.

    ``values`` holds string values per column; for constructor items
    ``elements`` additionally holds the assembled XML element (the
    string value is its compact serialization).
    """

    bindings: dict[str, BoundNode]
    values: dict[str, list[str]] = field(default_factory=dict)
    elements: dict[str, "object"] = field(default_factory=dict)

    def first(self, column: str, default: str = "") -> str:
        """First value of a column (columns are multi-valued)."""
        items = self.values.get(column, [])
        return items[0] if items else default

    def joined(self, column: str, separator: str = "; ") -> str:
        """All values of a column joined into one string."""
        return separator.join(self.values.get(column, []))


@dataclass
class QueryResult:
    """All rows of one query execution."""

    columns: list[str]
    variables: list[str]
    rows: list[ResultRow] = field(default_factory=list)
    #: root :class:`repro.obs.trace.Span` of this execution when the
    #: warehouse ran with tracing enabled; None otherwise
    trace: "object | None" = None
    #: degradation notices attached by the execution layer — a
    #: federated query that lost a shard answers with the surviving
    #: shards and says so here instead of raising (same philosophy as
    #: harvest quarantine); empty for complete results
    warnings: list[str] = field(default_factory=list)
    #: shard names whose contributions are missing from a degraded
    #: federated answer (machine-readable companion to ``warnings``;
    #: the HTTP service ships it as ``missing_shards``)
    failed_shards: list[str] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        """True when no execution-layer warning was attached."""
        return not self.warnings

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def column(self, name: str) -> list[list[str]]:
        """Per-row value lists of one column."""
        if name not in self.columns:
            raise KeyError(f"no result column {name!r}; "
                           f"have {self.columns}")
        return [row.values.get(name, []) for row in self.rows]

    def scalars(self, name: str) -> list[str]:
        """Flattened values of one column across all rows."""
        return [value for values in self.column(name) for value in values]

    def to_table(self) -> str:
        """Plain-table rendering (the GUI's table view)."""
        from repro.results.table import format_table
        return format_table(self)

    def to_xml(self) -> str:
        """XML rendering of the result values (the GUI's XML view)."""
        from repro.results.tagger import tagged_xml
        return tagged_xml(self)

    def to_tsv(self) -> str:
        """Tab-separated export (for downstream file-driven tools)."""
        from repro.results.export import to_tsv
        return to_tsv(self)

    def to_csv(self) -> str:
        """Comma-separated export."""
        from repro.results.export import to_csv
        return to_csv(self)
