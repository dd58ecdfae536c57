"""Read flat files into entries (lists of parsed lines).

An *entry* runs from its first line (by convention an ID line) to the
``//`` terminator. Entries stream lazily so multi-hundred-megabyte dumps
(the realistic case for EMBL) never need to be memory-resident.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, TextIO

from repro.errors import FlatFileError
from repro.flatfile.lines import TERMINATOR, Line, parse_line


@dataclass
class Entry:
    """One flat-file entry: ordered lines, excluding the terminator."""

    lines: list[Line]

    def first(self, code: str) -> Line | None:
        """First line with the given code, or None."""
        for line in self.lines:
            if line.code == code:
                return line
        return None

    def all(self, code: str) -> list[Line]:
        """All lines with the given code, in order."""
        return [line for line in self.lines if line.code == code]

    def value(self, code: str) -> str | None:
        """Data of the first line with the given code, or None."""
        line = self.first(code)
        return line.data if line is not None else None

    def joined(self, code: str, separator: str = " ") -> str:
        """All data lines with the given code joined into one string.

        This is how multi-line values (ENZYME ``CA``/``CC``) are
        reassembled.
        """
        return separator.join(line.data for line in self.all(code))

    def codes(self) -> list[str]:
        """Distinct line codes, in first-appearance order."""
        seen: list[str] = []
        for line in self.lines:
            if line.code not in seen:
                seen.append(line.code)
        return seen


def scan_entries(source: TextIO | Iterable[str]
                 ) -> Iterator[tuple[int, list[str]]]:
    """Split raw text lines into entries without parsing them: yield
    ``(first line number, raw lines)`` per entry, terminator excluded.

    This is the one structural scanner of the format. Blank lines
    between entries are tolerated; a blank line inside an entry, a
    terminator with no entry and a non-blank trailing fragment without
    its ``//`` terminator are errors (the paper's update requirement —
    "without any information being left out" — makes silently dropping
    a truncated entry unacceptable). Before raising one of those, the
    lines of the entry it cuts short are parsed, so a malformed line
    earlier in that entry is reported first, exactly as a line-by-line
    reader would.
    """
    current: list[str] = []
    first = line_number = 0
    for line_number, raw in enumerate(source, 1):
        if raw.startswith(TERMINATOR):
            if not current:
                raise FlatFileError("terminator with no entry", line_number)
            yield first, current
            current = []
        elif raw.strip():
            if not current:
                first = line_number
            current.append(raw)
        elif current:
            parse_entry(first, current)
            raise FlatFileError("blank line inside an entry", line_number)
    if current:
        parse_entry(first, current)
        raise FlatFileError(
            f"unterminated final entry ({len(current)} lines)", line_number)


def parse_entry(first_line: int, lines: list[str]) -> Entry:
    """Parse one entry's raw lines (as :func:`scan_entries` yields
    them); errors carry input line numbers counted from
    ``first_line``."""
    return Entry([parse_line(raw, number)
                  for number, raw in enumerate(lines, first_line)])


def iter_entries(source: TextIO | Iterable[str]) -> Iterator[Entry]:
    """Yield parsed entries from an iterable of raw text lines (see
    :func:`scan_entries` for the structural rules)."""
    for first, lines in scan_entries(source):
        yield parse_entry(first, lines)


def read_entries(path: str | Path) -> list[Entry]:
    """Read all entries of a flat file on disk."""
    with open(path, encoding="utf-8") as handle:
        return list(iter_entries(handle))


def parse_entries(text: str) -> list[Entry]:
    """Read all entries from a flat-file string."""
    return list(iter_entries(text.splitlines()))
