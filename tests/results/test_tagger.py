"""Unit tests for the XML result tagger: what ``to_xml`` emits, parsed
back, and — for the paper's figure queries — byte for byte."""

from pathlib import Path

import pytest

from repro.results import BoundNode, QueryResult, ResultRow, element_name_for
from repro.xmlkit import Element, parse_document

from tests.integration.test_figures import FIG8, FIG9, FIG11

GOLDEN = Path(__file__).parent / "golden"

CONSTRUCTOR = '''FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
WHERE contains($a//catalytic_activity, "ketone")
RETURN <hit ec={ $a//enzyme_id }>
         <what>{ $a//enzyme_description }</what>
         <names>{ $a//alternate_name }</names>
       </hit>, $a//reference/@swissprot_accession_number'''

EMPTY = '''FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
WHERE contains($a, "zzzznotthere", any) RETURN $a//enzyme_id'''


def result_with(rows, columns=("enzyme_id", "@mim_id")):
    result = QueryResult(columns=list(columns), variables=["a"])
    for values in rows:
        row = ResultRow(bindings={"a": BoundNode(1, 0)})
        row.values = values
        result.rows.append(row)
    return result


def tagged(rows, **kwargs):
    """The emitted document, parsed back."""
    return parse_document(result_with(rows, **kwargs).to_xml())


class TestElementNames:
    def test_plain_name_kept(self):
        assert element_name_for("enzyme_id") == "enzyme_id"

    def test_attribute_column_prefixed(self):
        assert element_name_for("@mim_id") == "attr_mim_id"

    def test_weird_characters_sanitized(self):
        name = element_name_for("a b/c")
        parse_document(f"<{name}/>")   # must be a valid element name

    def test_leading_digit_fixed(self):
        name = element_name_for("1abc")
        parse_document(f"<{name}/>")


class TestTagResult:
    def test_shape(self):
        xml = result_with(
            [{"enzyme_id": ["1.1.1.1"], "@mim_id": ["600000"]}]).to_xml()
        assert xml == (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            '<xomatiq_results rows="1">\n'
            '  <result>\n'
            '    <enzyme_id>1.1.1.1</enzyme_id>\n'
            '    <attr_mim_id>600000</attr_mim_id>\n'
            '  </result>\n'
            '</xomatiq_results>\n')
        doc = parse_document(xml)
        assert doc.root.tag == "xomatiq_results"
        assert doc.root.get("rows") == "1"
        record = doc.root.first("result")
        assert record.first("enzyme_id").text() == "1.1.1.1"
        assert record.first("attr_mim_id").text() == "600000"

    def test_multi_values_repeat_elements(self):
        doc = tagged([{"enzyme_id": ["a", "b"], "@mim_id": []}])
        record = doc.root.first("result")
        assert [e.text() for e in record.child_elements("enzyme_id")] \
            == ["a", "b"]

    def test_missing_values_emit_empty_element(self):
        xml = result_with(
            [{"enzyme_id": ["a", ""], "@mim_id": []}]).to_xml()
        # an empty string value and an absent value both tag as <x/>
        assert xml.count("    <enzyme_id/>\n") == 1
        assert xml.count("    <attr_mim_id/>\n") == 1
        record = parse_document(xml).root.first("result")
        assert record.first("attr_mim_id").children == []

    def test_output_is_wellformed_xml(self):
        doc = tagged([{"enzyme_id": ["<&>"], "@mim_id": ["x"]}])
        record = doc.root.first("result")
        assert record.first("enzyme_id").text() == "<&>"

    def test_whitespace_value_is_kept(self):
        xml = result_with([{"enzyme_id": [" "], "@mim_id": ["x"]}]).to_xml()
        assert "    <enzyme_id> </enzyme_id>\n" in xml

    def test_empty_result_document(self):
        xml = result_with([]).to_xml()
        assert xml == ('<?xml version="1.0" encoding="UTF-8"?>\n'
                       '<xomatiq_results rows="0"/>\n')

    def test_constructed_element_is_spliced_at_record_depth(self):
        result = result_with([{"hit": ["<hit/>"], "n": ["v"]}],
                             columns=("hit", "n"))
        hit = Element("hit", {"ec": 'a"b'})
        hit.subelement("what").subelement("d", text="x < y")
        hit.subelement("none")
        result.rows[0].elements["hit"] = hit
        assert result.to_xml() == (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            '<xomatiq_results rows="1">\n'
            '  <result>\n'
            '    <hit ec="a&quot;b">\n'
            '      <what>\n'
            '        <d>x &lt; y</d>\n'
            '      </what>\n'
            '      <none/>\n'
            '    </hit>\n'
            '    <n>v</n>\n'
            '  </result>\n'
            '</xomatiq_results>\n')
        # tagging reads the row, it does not adopt its elements
        assert hit.parent is None
        assert result.to_xml() == result.to_xml()


@pytest.mark.parametrize("name, query", [
    ("fig8", FIG8), ("fig9", FIG9), ("fig11", FIG11),
    ("constructor", CONSTRUCTOR), ("empty", EMPTY)])
def test_golden_bytes(name, query, warehouse):
    """``to_xml`` of the paper's queries over the session corpus, as
    the tree-building tagger printed it before the line writer."""
    expected = (GOLDEN / f"{name}.xml").read_text(encoding="utf-8")
    assert warehouse.query(query).to_xml() == expected
