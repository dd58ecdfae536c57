"""The tagger: structure result tuples into XML (paper §3.3).

"The resultant tuples are either displayed in a simple table format or
treated by a tagger module, that structure them into the desired XML
format of the result." Output shape::

    <xomatiq_results>
      <result>
        <Accession_Number>AB012345</Accession_Number>
        <description>...</description>     <!-- repeated if multi-valued -->
      </result>
      ...
    </xomatiq_results>

Column names are sanitized into valid element names (the ``@`` of
attribute items becomes a prefix). The document is written line by
line straight from the rows — the same bytes the pretty serializer
prints for the equivalent element tree, without building that tree;
only constructor items, which *are* elements, go through the
serializer's pretty writer.
"""

from __future__ import annotations

from repro.xmlkit import is_valid_name
from repro.xmlkit.serializer import escape_text, write_pretty

RESULTS_TAG = "xomatiq_results"
RESULT_TAG = "result"


def element_name_for(column: str) -> str:
    """A valid element name for a result column."""
    name = column
    if name.startswith("@"):
        name = "attr_" + name[1:]
    cleaned = "".join(ch if (ch.isalnum() or ch in "_-.") else "_"
                      for ch in name)
    if not cleaned or not (cleaned[0].isalpha() or cleaned[0] == "_"):
        cleaned = "col_" + cleaned
    if not is_valid_name(cleaned):
        cleaned = "column"
    return cleaned


def tagged_xml(result) -> str:
    """The result document of a
    :class:`~repro.results.resultset.QueryResult`, pretty-printed."""
    lines = ['<?xml version="1.0" encoding="UTF-8"?>']
    if not result.rows:
        lines.append(f'<{RESULTS_TAG} rows="0"/>')
        return "\n".join(lines) + "\n"
    lines.append(f'<{RESULTS_TAG} rows="{len(result.rows)}">')
    # per column: (column, explicit empty element, open tag, close tag)
    shapes = []
    for column in result.columns:
        tag = element_name_for(column)
        shapes.append((column, f"    <{tag}/>", f"    <{tag}>", f"</{tag}>"))
    for row in result.rows:
        lines.append(f"  <{RESULT_TAG}>")
        for column, empty, opening, closing in shapes:
            constructed = row.elements.get(column)
            if constructed is not None:
                # a constructor item: splice the assembled element
                write_pretty(constructed, lines, 2, "  ")
                continue
            values = row.values.get(column)
            if not values:
                lines.append(empty)
                continue
            for value in values:
                lines.append(opening + escape_text(value) + closing
                             if value else empty)
        lines.append(f"  </{RESULT_TAG}>")
    lines.append(f"</{RESULTS_TAG}>")
    return "\n".join(lines) + "\n"
