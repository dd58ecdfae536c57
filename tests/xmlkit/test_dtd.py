"""Unit tests for the DTD model, parser and validator."""

import time

import pytest

from repro.errors import DtdError, DtdValidationError
from repro.xmlkit import dtd as dtd_module
from repro.xmlkit import parse_document, parse_dtd
from repro.xmlkit.dtd import Choice, Dtd, ElementDecl, Mixed, Name, PCData, Seq

SIMPLE_DTD = """
<!ELEMENT root (head, item*, tail?)>
<!ELEMENT head (#PCDATA)>
<!ELEMENT item (#PCDATA)>
<!ELEMENT tail (#PCDATA)>
"""


def validate(dtd_text: str, xml_text: str) -> None:
    parse_dtd(dtd_text).validate(parse_document(xml_text))


class TestContentModelParsing:
    def test_sequence(self):
        dtd = parse_dtd("<!ELEMENT r (a, b)><!ELEMENT a (#PCDATA)>"
                        "<!ELEMENT b (#PCDATA)>")
        model = dtd.declaration("r").content
        assert isinstance(model, Seq)
        assert [item.tag for item in model.items] == ["a", "b"]

    def test_choice(self):
        dtd = parse_dtd("<!ELEMENT r (a | b)><!ELEMENT a (#PCDATA)>"
                        "<!ELEMENT b (#PCDATA)>")
        assert isinstance(dtd.declaration("r").content, Choice)

    def test_occurrence_indicators(self):
        dtd = parse_dtd("<!ELEMENT r (a?, b*, c+)><!ELEMENT a (#PCDATA)>"
                        "<!ELEMENT b (#PCDATA)><!ELEMENT c (#PCDATA)>")
        model = dtd.declaration("r").content
        assert [item.occurs for item in model.items] == ["?", "*", "+"]

    def test_pcdata(self):
        dtd = parse_dtd("<!ELEMENT r (#PCDATA)>")
        assert isinstance(dtd.declaration("r").content, PCData)

    def test_mixed_content(self):
        dtd = parse_dtd("<!ELEMENT r (#PCDATA | a | b)*>"
                        "<!ELEMENT a (#PCDATA)><!ELEMENT b (#PCDATA)>")
        model = dtd.declaration("r").content
        assert isinstance(model, Mixed)
        assert model.tags == ("a", "b")

    def test_nested_groups(self):
        dtd = parse_dtd("<!ELEMENT r ((a | b)+, c)><!ELEMENT a (#PCDATA)>"
                        "<!ELEMENT b (#PCDATA)><!ELEMENT c (#PCDATA)>")
        model = dtd.declaration("r").content
        assert isinstance(model, Seq)
        assert isinstance(model.items[0], Choice)
        assert model.items[0].occurs == "+"

    def test_empty_and_any(self):
        dtd = parse_dtd("<!ELEMENT e EMPTY><!ELEMENT a ANY>")
        assert str(dtd.declaration("e").content) == "EMPTY"
        assert str(dtd.declaration("a").content) == "ANY"

    def test_first_declared_is_root(self):
        dtd = parse_dtd(SIMPLE_DTD)
        assert dtd.root == "root"

    def test_duplicate_declaration_rejected(self):
        with pytest.raises(DtdError):
            parse_dtd("<!ELEMENT r (#PCDATA)><!ELEMENT r (#PCDATA)>")

    def test_mixing_separators_rejected(self):
        with pytest.raises(DtdError):
            parse_dtd("<!ELEMENT r (a, b | c)>")

    def test_comments_in_dtd_skipped(self):
        dtd = parse_dtd("<!-- c --><!ELEMENT r (#PCDATA)>")
        assert dtd.root == "r"

    @pytest.mark.parametrize("model", ["(a, #PCDATA)", "((#PCDATA | a)*, b)"])
    def test_pcdata_inside_element_content_rejected_at_parse(self, model):
        with pytest.raises(DtdError, match="PCData cannot be matched"):
            parse_dtd(f"<!ELEMENT r {model}><!ELEMENT a EMPTY>"
                      "<!ELEMENT b EMPTY>")

    def test_direct_construction_compiles_too(self):
        bad = ElementDecl("r", Seq(items=(Name(tag="a"), PCData())))
        with pytest.raises(DtdError, match="cannot be matched"):
            Dtd(elements=[bad])


class TestAttlist:
    DTD = """
    <!ELEMENT r (#PCDATA)>
    <!ATTLIST r id NMTOKEN #REQUIRED
                 note CDATA #IMPLIED
                 kind (x | y) "x">
    """

    def test_attribute_declarations_parsed(self):
        dtd = parse_dtd(self.DTD)
        attrs = dtd.declaration("r").attributes
        assert attrs["id"].required
        assert not attrs["note"].required
        assert attrs["kind"].enumeration == ("x", "y")
        assert attrs["kind"].default == "x"

    def test_required_attribute_enforced(self):
        dtd = parse_dtd(self.DTD)
        with pytest.raises(DtdValidationError):
            dtd.validate(parse_document("<r>t</r>"))

    def test_undeclared_attribute_rejected(self):
        dtd = parse_dtd(self.DTD)
        with pytest.raises(DtdValidationError):
            dtd.validate(parse_document('<r id="a1" zzz="nope">t</r>'))

    def test_enumeration_enforced(self):
        dtd = parse_dtd(self.DTD)
        with pytest.raises(DtdValidationError):
            dtd.validate(parse_document('<r id="a1" kind="z">t</r>'))

    def test_nmtoken_enforced(self):
        dtd = parse_dtd(self.DTD)
        with pytest.raises(DtdValidationError):
            dtd.validate(parse_document('<r id="has space">t</r>'))

    def test_valid_document_passes(self):
        validate(self.DTD, '<r id="a1" kind="y" note="free text">t</r>')

    FIXED = '<!ELEMENT r EMPTY><!ATTLIST r v CDATA #FIXED "1">'

    def test_fixed_value_enforced(self):
        assert parse_dtd(self.FIXED).declaration("r").attributes["v"].fixed
        with pytest.raises(DtdValidationError, match="#FIXED"):
            validate(self.FIXED, '<r v="2"/>')

    def test_fixed_value_accepted_or_omitted(self):
        validate(self.FIXED, '<r v="1"/>')
        validate(self.FIXED, "<r/>")

    NMTOKENS = "<!ELEMENT r EMPTY><!ATTLIST r v NMTOKENS #IMPLIED>"

    @pytest.mark.parametrize("value", ["", "   ", "a b!"])
    def test_nmtokens_enforced(self, value):
        with pytest.raises(DtdValidationError, match="not a valid NMTOKENS"):
            validate(self.NMTOKENS, f'<r v="{value}"/>')

    def test_nmtokens_accepts_token_list(self):
        validate(self.NMTOKENS, '<r v=" a1 b-2  c.3 "/>')

    def test_attlist_for_unknown_element_rejected(self):
        with pytest.raises(DtdError):
            parse_dtd("<!ELEMENT r (#PCDATA)>"
                      "<!ATTLIST q a CDATA #IMPLIED>")


class TestValidation:
    def test_valid_sequence(self):
        validate(SIMPLE_DTD, "<root><head>h</head><item>1</item>"
                             "<item>2</item><tail>t</tail></root>")

    def test_optional_parts_omitted(self):
        validate(SIMPLE_DTD, "<root><head>h</head></root>")

    def test_missing_required_child(self):
        with pytest.raises(DtdValidationError):
            validate(SIMPLE_DTD, "<root><item>1</item></root>")

    def test_wrong_order_rejected(self):
        with pytest.raises(DtdValidationError):
            validate(SIMPLE_DTD,
                     "<root><item>1</item><head>h</head></root>")

    def test_extra_child_rejected(self):
        with pytest.raises(DtdValidationError):
            validate(SIMPLE_DTD, "<root><head>h</head><head>h</head></root>")

    def test_undeclared_element_rejected(self):
        with pytest.raises(DtdValidationError):
            validate(SIMPLE_DTD, "<root><head>h</head><zzz/></root>")

    def test_wrong_root_rejected(self):
        with pytest.raises(DtdValidationError):
            validate(SIMPLE_DTD, "<head>h</head>")

    def test_text_in_element_content_rejected(self):
        with pytest.raises(DtdValidationError):
            validate(SIMPLE_DTD, "<root>stray<head>h</head></root>")

    def test_element_in_pcdata_rejected(self):
        with pytest.raises(DtdValidationError):
            validate(SIMPLE_DTD, "<root><head><item>1</item></head></root>")

    def test_empty_content_model(self):
        with pytest.raises(DtdValidationError):
            validate("<!ELEMENT r EMPTY>", "<r>text</r>")

    def test_any_content_model_accepts_everything(self):
        validate("<!ELEMENT r ANY><!ELEMENT a (#PCDATA)>",
                 "<r>text<a>more</a></r>")

    def test_mixed_content_allows_listed_tags(self):
        validate("<!ELEMENT r (#PCDATA | a)*><!ELEMENT a (#PCDATA)>",
                 "<r>one<a>two</a>three</r>")

    def test_mixed_content_rejects_unlisted_tags(self):
        with pytest.raises(DtdValidationError):
            validate("<!ELEMENT r (#PCDATA | a)*><!ELEMENT a (#PCDATA)>"
                     "<!ELEMENT b (#PCDATA)>", "<r><b>x</b></r>")

    def test_choice_plus_repetition(self):
        dtd_text = ("<!ELEMENT r (a | b)+><!ELEMENT a (#PCDATA)>"
                    "<!ELEMENT b (#PCDATA)>")
        validate(dtd_text, "<r><b>1</b><a>2</a><b>3</b></r>")
        with pytest.raises(DtdValidationError):
            validate(dtd_text, "<r/>")

    def test_is_valid_predicate(self):
        dtd = parse_dtd(SIMPLE_DTD)
        assert dtd.is_valid(parse_document("<root><head>h</head></root>"))
        assert not dtd.is_valid(parse_document("<root/>"))


class TestContentErrors:
    """The five content-model messages, each naming what is wrong."""

    @pytest.mark.parametrize("dtd_text, xml_text, message", [
        ("<!ELEMENT r EMPTY>", "<r>x</r>",
         "<r> is declared EMPTY but has content"),
        (SIMPLE_DTD, "<root><head><item>1</item></head></root>",
         "<head> is (#PCDATA) but has element children ['item']"),
        ("<!ELEMENT r (#PCDATA | a)*><!ELEMENT a EMPTY><!ELEMENT b EMPTY>",
         "<r><a/><b/>t<b/></r>", "<r> mixed content disallows ['b', 'b']"),
        (SIMPLE_DTD, "<root>stray<head>h</head></root>",
         "<root> has element content but contains text"),
        (SIMPLE_DTD, "<root><item>1</item><head>h</head></root>",
         "<root> children ['item', 'head'] do not match content model "
         "(head, item*, tail?)"),
    ])
    def test_message(self, dtd_text, xml_text, message):
        with pytest.raises(DtdValidationError) as info:
            validate(dtd_text, xml_text)
        assert str(info.value) == message


class TestCompiledContentModel:
    def test_compiled_once_and_reused(self, monkeypatch):
        dtd = parse_dtd(SIMPLE_DTD)
        decl = dtd.declaration("root")
        compiled = decl.automaton
        assert compiled is not None
        assert dtd.declaration("head").automaton is None   # (#PCDATA)

        def no_compiling(*args):
            raise AssertionError("validate compiled a content model")
        monkeypatch.setattr(dtd_module._ContentAutomaton, "__init__",
                            no_compiling)
        doc = parse_document("<root><head>h</head><item>1</item></root>")
        dtd.validate(doc)
        dtd.validate(doc)
        assert decl.automaton is compiled

    @pytest.mark.parametrize("model", ["((a*)*, b)", "((a | a)*, b)"])
    def test_ambiguous_model_rejects_in_linear_time(self, model):
        dtd = parse_dtd(f"<!ELEMENT r {model}><!ELEMENT a EMPTY>"
                        "<!ELEMENT b EMPTY>")
        doc = parse_document("<r>" + "<a/>" * 10_000 + "</r>")
        started = time.perf_counter()
        assert not dtd.is_valid(doc)
        assert time.perf_counter() - started < 1.0
        assert dtd.is_valid(parse_document("<r>" + "<a/>" * 10_000
                                           + "<b/></r>"))


class TestDtdTree:
    def test_tree_structure(self):
        dtd = parse_dtd(SIMPLE_DTD)
        tree = dtd.tree()
        assert tree.tag == "root"
        assert [child.tag for child in tree.children] == [
            "head", "item", "tail"]

    def test_tree_reports_attributes(self):
        dtd = parse_dtd("<!ELEMENT r (a)><!ELEMENT a (#PCDATA)>"
                        "<!ATTLIST a id CDATA #REQUIRED>")
        node = dtd.tree().find("a")
        assert node.attributes == ["id"]

    def test_tree_render_contains_indentation(self):
        text = parse_dtd(SIMPLE_DTD).tree().render()
        assert "\n  head" in text

    def test_recursive_dtd_truncated(self):
        dtd = parse_dtd("<!ELEMENT r (r?)>")
        tree = dtd.tree()   # must terminate
        assert tree.tag == "r"
