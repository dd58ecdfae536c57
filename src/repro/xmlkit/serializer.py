"""Serialize the XML infoset back to text.

Two styles:

* :func:`serialize` — pretty-printed with two-space indentation, the form
  XomatiQ shows in its result panel (Figure 6 of the paper),
* :func:`serialize_compact` — no insignificant whitespace, the form the
  transport layer stores.

Both escape ``& < >`` in character data and additionally quotes in
attribute values, so ``parse(serialize(doc)) == doc`` for any document the
parser accepts (property-tested).
"""

from __future__ import annotations

from repro.xmlkit.doc import Document, Element, Text


def escape_text(value: str) -> str:
    """Escape character data."""
    return (value.replace("&", "&amp;")
                 .replace("<", "&lt;")
                 .replace(">", "&gt;"))


def escape_attribute(value: str) -> str:
    """Escape an attribute value for double-quoted serialization."""
    return (escape_text(value)
            .replace('"', "&quot;")
            .replace("\n", "&#10;")
            .replace("\t", "&#9;"))


def serialize(doc: Document | Element, declaration: bool = True,
              indent: str = "  ") -> str:
    """Pretty-print a document or element.

    Mixed content (an element with both text and element children) is
    emitted inline without added whitespace, so round-tripping never
    injects characters into content.
    """
    element = doc.root if isinstance(doc, Document) else doc
    lines: list[str] = []
    if declaration:
        lines.append('<?xml version="1.0" encoding="UTF-8"?>')
    write_pretty(element, lines, 0, indent)
    return "\n".join(lines) + "\n"


def serialize_compact(doc: Document | Element, declaration: bool = False) -> str:
    """Serialize with no whitespace between tags."""
    element = doc.root if isinstance(doc, Document) else doc
    parts: list[str] = []
    if declaration:
        parts.append('<?xml version="1.0" encoding="UTF-8"?>')
    _write_compact(element, parts)
    return "".join(parts)


def _start_tag(element: Element) -> str:
    attrs = "".join(
        f' {name}="{escape_attribute(value)}"'
        for name, value in element.attributes.items())
    return f"<{element.tag}{attrs}>"


def _empty_tag(element: Element) -> str:
    attrs = "".join(
        f' {name}="{escape_attribute(value)}"'
        for name, value in element.attributes.items())
    return f"<{element.tag}{attrs}/>"


def _write_compact(element: Element, parts: list[str]) -> None:
    if not element.children:
        parts.append(_empty_tag(element))
        return
    parts.append(_start_tag(element))
    for child in element.children:
        if isinstance(child, Text):
            parts.append(escape_text(child.value))
        else:
            _write_compact(child, parts)
    parts.append(f"</{element.tag}>")


def write_pretty(element: Element, lines: list[str], depth: int,
                 indent: str) -> None:
    """Append the pretty-printed lines of ``element``, ``depth``
    indents deep, to ``lines``."""
    pad = indent * depth
    if not element.children:
        lines.append(pad + _empty_tag(element))
        return
    has_element_child = any(isinstance(c, Element) for c in element.children)
    if not has_element_child:
        # leaf with text only: keep on one line
        text = "".join(escape_text(c.value) for c in element.children
                       if isinstance(c, Text))
        lines.append(f"{pad}{_start_tag(element)}{text}</{element.tag}>")
        return
    has_text_child = any(
        isinstance(c, Text) and c.value.strip() for c in element.children)
    if has_text_child:
        # mixed content: emit compactly on one line to preserve spacing
        parts: list[str] = []
        _write_compact(element, parts)
        lines.append(pad + "".join(parts))
        return
    lines.append(pad + _start_tag(element))
    for child in element.children:
        if isinstance(child, Element):
            write_pretty(child, lines, depth + 1, indent)
    lines.append(f"{pad}</{element.tag}>")
