"""Flat-file substrate: the line/entry record format of the paper's
Figures 3-4, with streaming reader and writer."""

from repro.flatfile.lines import (
    DATA_COLUMN,
    MAX_DATA_WIDTH,
    TERMINATOR,
    CardinalityChecker,
    Line,
    LineSpec,
    parse_line,
    render_wrapped,
)
from repro.flatfile.reader import (
    Entry,
    iter_entries,
    parse_entries,
    parse_entry,
    read_entries,
    scan_entries,
)
from repro.flatfile.writer import (
    entry_from_pairs,
    render_entries,
    render_entry,
    write_entries,
)

__all__ = [
    "DATA_COLUMN",
    "MAX_DATA_WIDTH",
    "TERMINATOR",
    "CardinalityChecker",
    "Entry",
    "Line",
    "LineSpec",
    "entry_from_pairs",
    "iter_entries",
    "parse_entries",
    "parse_entry",
    "parse_line",
    "read_entries",
    "render_entries",
    "render_entry",
    "render_wrapped",
    "scan_entries",
    "write_entries",
]
