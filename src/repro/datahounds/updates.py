"""Incremental update detection between source releases.

The paper's second design consideration: "the ability to download and
integrate the latest updates to any database without any information
being left out or added twice." We satisfy it by diffing releases at
the *entry* level: each entry has a stable key (its ID) and a content
fingerprint; comparing the previous release's fingerprint map with the
new one yields exactly the adds, updates and removals to apply.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field
from typing import Iterable

from repro.flatfile import TERMINATOR, Entry, render_entry

#: a line (after a newline) whose columns 3-5 hold something other
#: than spaces: either it does not parse, or (a tab there) its
#: rendered form is not its text, so only parsing can fingerprint its
#: entry. Anchored on the literal newline rather than ``^`` so the
#: search skips from line to line.
_IRREGULAR_LINE = re.compile(r"\n.. {0,2}[^ \n]")


def entry_fingerprint(entry: Entry) -> str:
    """Content fingerprint of an entry (rendered canonical text).

    The full SHA-256 digest, deliberately untruncated: a truncated
    prefix that collides between an entry's old and new content makes
    ``diff_releases`` classify a changed entry as unchanged and
    silently drop it from the update plan — exactly the "information
    left out" failure the hound exists to prevent.
    """
    return hashlib.sha256(
        render_entry(entry).encode("utf-8")).hexdigest()


def chunk_fingerprint(lines: list[str]) -> str | None:
    """:func:`entry_fingerprint` of the entry that one entry's raw
    lines (as :func:`~repro.flatfile.scan_entries` yields them) parse
    to, computed from the text alone; None when the text cannot tell.

    The text is normalised the way :func:`render_entry` writes an
    entry: each line right-stripped, lines joined with ``\\n``, the
    ``//`` terminator and one trailing newline appended. A line that
    parses renders as exactly its right-stripped text whenever its
    columns 3-5 are blank spaces, so for every such entry the two
    fingerprints are equal and snapshots built either way agree. A
    chunk with anything but spaces in some line's columns 3-5 returns
    None (a tab there parses but renders as spaces; anything else
    does not parse) and its caller parses it. Any other chunk that
    does not parse still gets a digest, and it can never match the
    fingerprint of a loaded entry: every line of a rendered entry
    parses back to itself.
    """
    body = "\n".join([line.rstrip() for line in lines])
    if _IRREGULAR_LINE.search("\n" + body):
        return None
    return hashlib.sha256(
        f"{body}\n{TERMINATOR}\n".encode("utf-8")).hexdigest()


@dataclass
class ReleaseSnapshot:
    """Fingerprints of every entry in one release: key → fingerprint."""

    release: str
    fingerprints: dict[str, str] = field(default_factory=dict)

    @classmethod
    def build(cls, release: str, keyed_entries: Iterable[tuple[str, Entry]]
              ) -> "ReleaseSnapshot":
        """Fingerprint every entry of one release."""
        snapshot = cls(release)
        for key, entry in keyed_entries:
            snapshot.fingerprints[key] = entry_fingerprint(entry)
        return snapshot

    def __len__(self) -> int:
        return len(self.fingerprints)


@dataclass(frozen=True)
class UpdatePlan:
    """The minimal set of entry-level operations to bring the warehouse
    from one release to another."""

    added: tuple[str, ...]
    updated: tuple[str, ...]
    removed: tuple[str, ...]
    unchanged: tuple[str, ...]

    @property
    def is_noop(self) -> bool:
        """True when the releases are entry-identical."""
        return not (self.added or self.updated or self.removed)

    @property
    def touched(self) -> tuple[str, ...]:
        """Keys whose documents must be (re)loaded."""
        return self.added + self.updated


def diff_releases(old: ReleaseSnapshot | None,
                  new: ReleaseSnapshot) -> UpdatePlan:
    """Compute the update plan from ``old`` (None = empty warehouse) to
    ``new``. Keys are matched exactly; a changed fingerprint is an
    update, so nothing is "added twice" and removals are not "left out".
    """
    old_map = old.fingerprints if old is not None else {}
    new_map = new.fingerprints
    added = tuple(sorted(k for k in new_map if k not in old_map))
    removed = tuple(sorted(k for k in old_map if k not in new_map))
    updated = tuple(sorted(
        k for k in new_map
        if k in old_map and new_map[k] != old_map[k]))
    unchanged = tuple(sorted(
        k for k in new_map
        if k in old_map and new_map[k] == old_map[k]))
    return UpdatePlan(added=added, updated=updated, removed=removed,
                      unchanged=unchanged)
