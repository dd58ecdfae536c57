"""DTD model, parser and validator.

The paper's XML-Transformers are driven by per-source DTDs (Figure 5 shows
the ENZYME DTD). This module implements:

* a content-model algebra — ``Name``, ``Seq``, ``Choice``, ``PCData``,
  ``Empty`` and ``Any``, each with an occurrence indicator (`1`, ``?``,
  ``*``, ``+``),
* a parser for ``<!ELEMENT ...>`` and ``<!ATTLIST ...>`` declarations,
* a validator that checks a :class:`~repro.xmlkit.doc.Document` against a
  DTD (each element-content model is compiled once, when its declaration
  is added, into a Glushkov position automaton over child tag sequences),
* a structural summary (:meth:`Dtd.tree`) used by the visual query
  builder's left panel.

Mixed-content declarations of the form ``(#PCDATA | a | b)*`` are
supported; general external entities are not.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.errors import DtdError, DtdValidationError
from repro.xmlkit.doc import Document, Element, Text, is_valid_name

# --------------------------------------------------------------------------
# Content model AST
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Particle:
    """Base class for content-model particles. ``occurs`` is one of
    ``"1"``, ``"?"``, ``"*"``, ``"+"``."""

    occurs: str = "1"

    def with_occurs(self, occurs: str) -> "Particle":
        """A copy of this particle with another occurrence flag."""
        if occurs not in ("1", "?", "*", "+"):
            raise DtdError(f"bad occurrence indicator {occurs!r}")
        return type(self)(**{**self.__dict__, "occurs": occurs})


@dataclass(frozen=True)
class Name(Particle):
    """A reference to a child element by tag."""

    tag: str = ""

    def __str__(self) -> str:
        return self.tag + ("" if self.occurs == "1" else self.occurs)


@dataclass(frozen=True)
class Seq(Particle):
    """An ordered sequence ``(a, b, c)``."""

    items: tuple[Particle, ...] = ()

    def __str__(self) -> str:
        inner = ", ".join(str(i) for i in self.items)
        return f"({inner})" + ("" if self.occurs == "1" else self.occurs)


@dataclass(frozen=True)
class Choice(Particle):
    """An alternation ``(a | b | c)``."""

    items: tuple[Particle, ...] = ()

    def __str__(self) -> str:
        inner = " | ".join(str(i) for i in self.items)
        return f"({inner})" + ("" if self.occurs == "1" else self.occurs)


@dataclass(frozen=True)
class PCData(Particle):
    """Text-only content: ``(#PCDATA)``."""

    def __str__(self) -> str:
        return "(#PCDATA)"


@dataclass(frozen=True)
class Mixed(Particle):
    """Mixed content ``(#PCDATA | a | b)*``."""

    tags: tuple[str, ...] = ()

    def __str__(self) -> str:
        inner = " | ".join(("#PCDATA",) + self.tags)
        return f"({inner})*"


@dataclass(frozen=True)
class Empty(Particle):
    """``EMPTY`` content."""

    def __str__(self) -> str:
        return "EMPTY"


@dataclass(frozen=True)
class AnyContent(Particle):
    """``ANY`` content."""

    def __str__(self) -> str:
        return "ANY"


# --------------------------------------------------------------------------
# Attribute declarations
# --------------------------------------------------------------------------

_ATTR_TYPES = ("CDATA", "NMTOKEN", "NMTOKENS", "ID", "IDREF", "ENTITY")
_NMTOKEN_EXTRA = set(".-_:")


def _is_nmtoken(value: str) -> bool:
    return bool(value) and all(
        ch.isalnum() or ch in _NMTOKEN_EXTRA for ch in value)


@dataclass(frozen=True)
class AttrDecl:
    """One attribute declaration from an ATTLIST."""

    name: str
    attr_type: str = "CDATA"           # or NMTOKEN, or ("a"|"b") enumeration
    enumeration: tuple[str, ...] = ()  # non-empty when enumerated type
    required: bool = False
    default: str | None = None
    fixed: bool = False                # #FIXED: the value must be ``default``

    def validate_value(self, value: str, element_tag: str) -> None:
        """Check one attribute value against this declaration."""
        if self.enumeration and value not in self.enumeration:
            raise DtdValidationError(
                f"<{element_tag}> attribute {self.name}={value!r} not in "
                f"enumeration {self.enumeration}")
        if self.attr_type in ("NMTOKEN", "NMTOKENS"):
            tokens = value.split() if self.attr_type == "NMTOKENS" else [value]
            if not (tokens and all(map(_is_nmtoken, tokens))):
                raise DtdValidationError(
                    f"<{element_tag}> attribute {self.name}={value!r} "
                    f"is not a valid {self.attr_type}")
        if self.fixed and value != self.default:
            raise DtdValidationError(
                f"<{element_tag}> attribute {self.name}={value!r} differs "
                f"from its #FIXED value {self.default!r}")


@dataclass
class ElementDecl:
    """One ``<!ELEMENT>`` declaration plus its attributes."""

    tag: str
    content: Particle
    attributes: dict[str, AttrDecl] = field(default_factory=dict)
    # compiled by Dtd.add; None unless the content is element content
    automaton: _ContentAutomaton | None = field(
        default=None, compare=False, repr=False)

    def allows_text(self) -> bool:
        """True when text content is legal for this element."""
        return isinstance(self.content, (PCData, Mixed, AnyContent))


# --------------------------------------------------------------------------
# DTD container
# --------------------------------------------------------------------------


class Dtd:
    """A parsed DTD: element declarations keyed by tag.

    The first declared element is taken as the root (the paper's DTDs are
    written root-first, e.g. ``hlx_enzyme``).
    """

    def __init__(self, elements: Iterable[ElementDecl] | None = None,
                 root: str | None = None):
        self.elements: dict[str, ElementDecl] = {}
        for decl in elements or ():
            self.add(decl)
        self._root = root

    def add(self, decl: ElementDecl) -> None:
        """Add (and compile) a declaration; the first becomes the root."""
        if decl.tag in self.elements:
            raise DtdError(f"duplicate <!ELEMENT {decl.tag}> declaration")
        if not isinstance(decl.content, (Empty, AnyContent, PCData, Mixed)):
            decl.automaton = _ContentAutomaton(decl.content)
        self.elements[decl.tag] = decl
        if self._root is None:
            self._root = decl.tag

    @property
    def root(self) -> str:
        """The DTD's root element tag."""
        if self._root is None:
            raise DtdError("empty DTD has no root element")
        return self._root

    def declaration(self, tag: str) -> ElementDecl:
        """The declaration of one element, or :class:`DtdError`."""
        try:
            return self.elements[tag]
        except KeyError:
            raise DtdError(f"element <{tag}> is not declared") from None

    # -- validation -----------------------------------------------------------

    def validate(self, doc: Document) -> None:
        """Raise :class:`DtdValidationError` if ``doc`` violates this DTD."""
        if doc.root.tag != self.root:
            raise DtdValidationError(
                f"root element is <{doc.root.tag}>, DTD expects <{self.root}>")
        self._validate_element(doc.root)

    def is_valid(self, doc: Document) -> bool:
        """True if the document validates."""
        try:
            self.validate(doc)
        except DtdValidationError:
            return False
        return True

    def _validate_element(self, element: Element) -> None:
        decl = self.elements.get(element.tag)
        if decl is None:
            raise DtdValidationError(f"undeclared element <{element.tag}>")
        self._validate_attributes(element, decl)
        self._validate_content(element, decl)
        for child in element.children:
            if isinstance(child, Element):
                self._validate_element(child)

    def _validate_attributes(self, element: Element, decl: ElementDecl) -> None:
        for name, value in element.attributes.items():
            attr = decl.attributes.get(name)
            if attr is None:
                raise DtdValidationError(
                    f"<{element.tag}> has undeclared attribute {name!r}")
            attr.validate_value(value, element.tag)
        for attr in decl.attributes.values():
            if attr.required and attr.name not in element.attributes:
                raise DtdValidationError(
                    f"<{element.tag}> missing required attribute {attr.name!r}")

    def _validate_content(self, element: Element, decl: ElementDecl) -> None:
        content = decl.content
        child_tags = [c.tag for c in element.children if isinstance(c, Element)]
        has_text = any(
            isinstance(c, Text) and c.value.strip() for c in element.children)
        if isinstance(content, Empty):
            if element.children:
                raise DtdValidationError(
                    f"<{element.tag}> is declared EMPTY but has content")
            return
        if isinstance(content, AnyContent):
            return
        if isinstance(content, PCData):
            if child_tags:
                raise DtdValidationError(
                    f"<{element.tag}> is (#PCDATA) but has element children "
                    f"{child_tags}")
            return
        if isinstance(content, Mixed):
            bad = [t for t in child_tags if t not in content.tags]
            if bad:
                raise DtdValidationError(
                    f"<{element.tag}> mixed content disallows {bad}")
            return
        if has_text:
            raise DtdValidationError(
                f"<{element.tag}> has element content but contains text")
        if not decl.automaton.matches(child_tags):
            raise DtdValidationError(
                f"<{element.tag}> children {child_tags} do not match "
                f"content model {content}")

    # -- structural summary -----------------------------------------------------

    def tree(self) -> "DtdTreeNode":
        """Structural summary rooted at the DTD root.

        This is what the XomatiQ GUI's left panel renders. Recursion
        guards against cyclic DTDs by truncating repeated tags on a path.
        """
        return self._tree_node(self.root, frozenset())

    def _tree_node(self, tag: str, seen: frozenset[str]) -> "DtdTreeNode":
        decl = self.elements.get(tag)
        node = DtdTreeNode(tag=tag)
        if decl is None or tag in seen:
            return node
        node.attributes = sorted(decl.attributes)
        node.allows_text = decl.allows_text()
        child_seen = seen | {tag}
        for child_tag in _particle_names(decl.content):
            node.children.append(self._tree_node(child_tag, child_seen))
        return node


@dataclass
class DtdTreeNode:
    """One node of the DTD structural summary."""

    tag: str
    attributes: list[str] = field(default_factory=list)
    allows_text: bool = False
    children: list["DtdTreeNode"] = field(default_factory=list)

    def render(self, indent: str = "") -> str:
        """ASCII rendering of the subtree (GUI left-panel substitute)."""
        label = self.tag
        if self.attributes:
            label += " [" + ", ".join("@" + a for a in self.attributes) + "]"
        lines = [indent + label]
        for child in self.children:
            lines.append(child.render(indent + "  "))
        return "\n".join(lines)

    def find(self, tag: str) -> "DtdTreeNode | None":
        """First descendant-or-self node with the given tag."""
        if self.tag == tag:
            return self
        for child in self.children:
            hit = child.find(tag)
            if hit is not None:
                return hit
        return None


def _particle_names(particle: Particle) -> list[str]:
    """Unique child tags mentioned by a content model, declaration order."""
    names: list[str] = []

    def visit(p: Particle) -> None:
        if isinstance(p, Name):
            if p.tag not in names:
                names.append(p.tag)
        elif isinstance(p, (Seq, Choice)):
            for item in p.items:
                visit(item)
        elif isinstance(p, Mixed):
            for tag in p.tags:
                if tag not in names:
                    names.append(tag)

    visit(particle)
    return names


# --------------------------------------------------------------------------
# Content-model matching (Glushkov position automaton)
# --------------------------------------------------------------------------


class _ContentAutomaton:
    """The Glushkov position automaton of one element-content model.

    Every ``Name`` occurrence is a position; ``follow[p]`` holds the
    positions that may come right after ``p``, and position 0 is the
    start. There are no ε-moves. An ambiguous model such as ``(a | a)*``
    has several positions for one tag, so a state is a set of positions;
    states are determinised lazily and memoized per ``(state, tag)``, which
    makes a match one dict lookup per child and linear in the children.
    Parallel transform workers share the memo; two threads filling the
    same entry store the same value.
    """

    def __init__(self, particle: Particle):
        self._tags = [""]
        self._follow: list[set[int]] = [set()]
        nullable, self._follow[0], last = self._visit(particle)
        self._accept = frozenset(last | {0} if nullable else last)
        self._start = frozenset((0,))
        self._moves: dict[tuple[frozenset[int], str], frozenset[int]] = {}

    def _visit(self, p: Particle) -> tuple[bool, set[int], set[int]]:
        """``(nullable, first, last)`` of ``p``; adds its follow edges."""
        follow = self._follow
        if isinstance(p, Name):
            nullable, first, last = False, {len(follow)}, {len(follow)}
            follow.append(set())
            self._tags.append(p.tag)
        elif isinstance(p, Seq):
            nullable, first, last = True, set(), set()
            for item in p.items:
                i_nullable, i_first, i_last = self._visit(item)
                for pos in last:
                    follow[pos] |= i_first
                if nullable:
                    first |= i_first
                last = i_last | last if i_nullable else i_last
                nullable = nullable and i_nullable
        elif isinstance(p, Choice):
            nullable, first, last = False, set(), set()
            for item in p.items:
                i_nullable, i_first, i_last = self._visit(item)
                nullable = nullable or i_nullable
                first |= i_first
                last |= i_last
        else:
            raise DtdError(
                f"content particle {type(p).__name__} cannot be matched")
        if p.occurs in ("+", "*"):
            for pos in last:
                follow[pos] |= first
        return nullable or p.occurs in ("?", "*"), first, last

    def matches(self, tags: list[str]) -> bool:
        """True if the tag sequence is generated by the content model."""
        state, moves = self._start, self._moves
        for tag in tags:
            nxt = moves.get((state, tag))
            if nxt is None:
                nxt = frozenset(q for p in state for q in self._follow[p]
                                if self._tags[q] == tag)
                if not nxt:
                    return False
                moves[state, tag] = nxt
            state = nxt
        return not self._accept.isdisjoint(state)


# --------------------------------------------------------------------------
# DTD text parser
# --------------------------------------------------------------------------


def parse_dtd(text: str) -> Dtd:
    """Parse DTD text (``<!ELEMENT>`` / ``<!ATTLIST>`` declarations).

    Comments and an optional leading XML declaration are skipped.
    """
    dtd = Dtd()
    pos = 0
    length = len(text)
    pending_attlists: list[tuple[str, list[AttrDecl]]] = []
    while pos < length:
        if text[pos] in " \t\r\n":
            pos += 1
            continue
        if text.startswith("<!--", pos):
            end = text.find("-->", pos + 4)
            if end < 0:
                raise DtdError("unterminated comment in DTD")
            pos = end + 3
            continue
        if text.startswith("<?", pos):
            end = text.find("?>", pos)
            if end < 0:
                raise DtdError("unterminated processing instruction in DTD")
            pos = end + 2
            continue
        if text.startswith("<!ELEMENT", pos):
            end = text.find(">", pos)
            if end < 0:
                raise DtdError("unterminated <!ELEMENT declaration")
            _parse_element_decl(text[pos + len("<!ELEMENT"):end], dtd)
            pos = end + 1
            continue
        if text.startswith("<!ATTLIST", pos):
            end = text.find(">", pos)
            if end < 0:
                raise DtdError("unterminated <!ATTLIST declaration")
            tag, decls = _parse_attlist(text[pos + len("<!ATTLIST"):end])
            pending_attlists.append((tag, decls))
            pos = end + 1
            continue
        raise DtdError(f"unexpected DTD content near {text[pos:pos + 30]!r}")
    for tag, decls in pending_attlists:
        element = dtd.elements.get(tag)
        if element is None:
            raise DtdError(f"ATTLIST for undeclared element <{tag}>")
        for decl in decls:
            element.attributes[decl.name] = decl
    return dtd


def _parse_element_decl(body: str, dtd: Dtd) -> None:
    body = body.strip()
    parts = body.split(None, 1)
    if len(parts) != 2:
        raise DtdError(f"malformed <!ELEMENT {body!r}>")
    tag, model_text = parts
    if not is_valid_name(tag):
        raise DtdError(f"invalid element name {tag!r}")
    dtd.add(ElementDecl(tag=tag, content=_parse_content_model(model_text.strip())))


def _parse_content_model(text: str) -> Particle:
    if text == "EMPTY":
        return Empty()
    if text == "ANY":
        return AnyContent()
    particle, rest = _parse_particle(text)
    if rest.strip():
        raise DtdError(f"trailing content-model text {rest!r}")
    if isinstance(particle, Choice) and any(
            isinstance(i, PCData) for i in particle.items):
        # (#PCDATA | a | b)* form
        tags = tuple(i.tag for i in particle.items if isinstance(i, Name))
        if particle.occurs not in ("*", "1"):
            raise DtdError("mixed content must use the (...)* form")
        return Mixed(tags=tags)
    return particle


def _parse_particle(text: str) -> tuple[Particle, str]:
    text = text.lstrip()
    if not text:
        raise DtdError("empty content particle")
    if text.startswith("("):
        return _parse_group(text)
    if text.startswith("#PCDATA"):
        return PCData(), text[len("#PCDATA"):]
    # a bare name
    index = 0
    while index < len(text) and text[index] not in " \t\r\n,|)?*+":
        index += 1
    name = text[:index]
    if not is_valid_name(name):
        raise DtdError(f"invalid name in content model: {name!r}")
    rest = text[index:]
    occurs, rest = _read_occurs(rest)
    return Name(occurs=occurs, tag=name), rest


def _parse_group(text: str) -> tuple[Particle, str]:
    assert text.startswith("(")
    rest = text[1:]
    items: list[Particle] = []
    separator: str | None = None
    while True:
        particle, rest = _parse_particle(rest)
        items.append(particle)
        rest = rest.lstrip()
        if not rest:
            raise DtdError("unterminated group in content model")
        if rest.startswith(")"):
            rest = rest[1:]
            break
        if rest[0] in ",|":
            if separator is None:
                separator = rest[0]
            elif rest[0] != separator:
                raise DtdError("cannot mix ',' and '|' in one group")
            rest = rest[1:]
            continue
        raise DtdError(f"unexpected character {rest[0]!r} in content model")
    occurs, rest = _read_occurs(rest)
    if len(items) == 1 and separator is None:
        single = items[0]
        if occurs == "1":
            return single, rest
        if single.occurs != "1":
            # ((a*))+ etc: wrap in a sequence to compose occurrences
            return Seq(occurs=occurs, items=(single,)), rest
        return single.with_occurs(occurs), rest
    if separator == "|":
        return Choice(occurs=occurs, items=tuple(items)), rest
    return Seq(occurs=occurs, items=tuple(items)), rest


def _read_occurs(text: str) -> tuple[str, str]:
    if text[:1] in ("?", "*", "+"):
        return text[0], text[1:]
    return "1", text


def _parse_attlist(body: str) -> tuple[str, list[AttrDecl]]:
    tokens = _tokenize_attlist(body)
    if not tokens:
        raise DtdError("empty <!ATTLIST declaration")
    tag = tokens[0]
    decls: list[AttrDecl] = []
    index = 1
    while index < len(tokens):
        if index + 1 >= len(tokens):
            raise DtdError(f"truncated ATTLIST for <{tag}>")
        name = tokens[index]
        type_token = tokens[index + 1]
        index += 2
        enumeration: tuple[str, ...] = ()
        if type_token.startswith("("):
            enumeration = tuple(
                part.strip() for part in type_token.strip("()").split("|"))
            attr_type = "ENUM"
        else:
            attr_type = type_token
            if attr_type not in _ATTR_TYPES:
                raise DtdError(
                    f"unsupported attribute type {attr_type!r} on <{tag}>")
        required = fixed = False
        default: str | None = None
        if index < len(tokens) and tokens[index] == "#REQUIRED":
            required = True
            index += 1
        elif index < len(tokens) and tokens[index] == "#IMPLIED":
            index += 1
        elif index < len(tokens) and tokens[index] == "#FIXED":
            fixed = True
            index += 1
            if index >= len(tokens):
                raise DtdError(f"#FIXED without value on <{tag}>")
            default = tokens[index].strip("\"'")
            index += 1
        elif index < len(tokens) and tokens[index][0] in "\"'":
            default = tokens[index].strip("\"'")
            index += 1
        else:
            raise DtdError(
                f"attribute {name!r} on <{tag}> missing default declaration")
        decls.append(AttrDecl(name=name, attr_type=attr_type,
                              enumeration=enumeration, required=required,
                              default=default, fixed=fixed))
    return tag, decls


def _tokenize_attlist(body: str) -> list[str]:
    tokens: list[str] = []
    index = 0
    length = len(body)
    while index < length:
        ch = body[index]
        if ch in " \t\r\n":
            index += 1
            continue
        if ch in "\"'":
            end = body.find(ch, index + 1)
            if end < 0:
                raise DtdError("unterminated default value in ATTLIST")
            tokens.append(body[index:end + 1])
            index = end + 1
            continue
        if ch == "(":
            end = body.find(")", index)
            if end < 0:
                raise DtdError("unterminated enumeration in ATTLIST")
            tokens.append(body[index:end + 1])
            index = end + 1
            continue
        start = index
        while index < length and body[index] not in " \t\r\n\"'(":
            index += 1
        tokens.append(body[start:index])
    return tokens
