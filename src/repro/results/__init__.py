"""Result delivery: result sets, the table view and the XML tagger."""

from repro.results.export import to_csv, to_delimited, to_tsv, write_tsv
from repro.results.resultset import BoundNode, QueryResult, ResultRow
from repro.results.table import format_table
from repro.results.tagger import element_name_for, tagged_xml

__all__ = ["BoundNode", "QueryResult", "ResultRow", "element_name_for",
           "format_table", "tagged_xml", "to_csv", "to_delimited",
           "to_tsv", "write_tsv"]
