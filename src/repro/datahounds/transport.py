"""Simulated transport layer for remote biological repositories.

The paper's sources are "accessible through internet protocols such as
FTP and HTTP", with "updates ... provided through pre-designated
locations through the same protocols". This environment has no network,
so we model a remote repository as a set of *releases* per source, each
release a full flat-file dump — the shape of a real FTP mirror
(``enzyme.dat`` re-published monthly). Two implementations:

* :class:`InMemoryRepository` — releases held as strings; used by tests
  and the synthetic-corpus benchmarks,
* :class:`DirectoryRepository` — releases on disk as
  ``<base>/<source>/<release>.dat``; used by the examples.

Both present the same protocol: :meth:`releases`, :meth:`latest_release`
and :meth:`fetch`, with content checksums so the hound can detect that a
release already loaded has not changed.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from time import perf_counter

from repro.errors import TransportError
from repro.obs.metrics import SIZE_BUCKETS, resolve_metrics


def content_checksum(text: str) -> str:
    """Stable checksum of a release's content (first 16 hex chars of
    SHA-256 — plenty for change detection)."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _record_fetch(metrics, source: str, text: str,
                  duration_s: float) -> None:
    """Always-on transport metrics: fetch counts, bytes, latency."""
    size = len(text.encode("utf-8"))
    metrics.inc("transport.fetches", source=source)
    metrics.inc("transport.fetch_bytes", size, source=source)
    metrics.observe("transport.fetch_seconds", duration_s)
    metrics.observe("transport.fetch_size_bytes", size,
                    buckets=SIZE_BUCKETS)


def _record_fetch_error(metrics, source: str) -> None:
    """Always-on failure-path counter — a fetch that raises must be as
    visible as one that succeeds, or retry storms look like silence."""
    metrics.inc("transport.fetch_errors", source=source)


class FetchResult:
    """One fetched release: content plus provenance."""

    __slots__ = ("source", "release", "text", "checksum")

    def __init__(self, source: str, release: str, text: str):
        self.source = source
        self.release = release
        self.text = text
        self.checksum = content_checksum(text)

    def __repr__(self) -> str:
        return (f"FetchResult({self.source}/{self.release}, "
                f"{len(self.text)} chars, {self.checksum})")


class InMemoryRepository:
    """A fake FTP site whose releases live in a dict.

    Release ids sort lexicographically; the latest release is the
    greatest id (use e.g. ``r2026-01``-style names).

    ``metrics`` follows :class:`~repro.engine.Warehouse`: ``None`` (the
    default) records fetch count/bytes/latency into the process-wide
    registry, ``False`` records nothing, a registry records there.
    """

    def __init__(self, metrics=None):
        self._releases: dict[str, dict[str, str]] = {}
        self.metrics = resolve_metrics(metrics)

    def publish(self, source: str, release: str, text: str) -> None:
        """Publish (or overwrite) a release of a source."""
        self._releases.setdefault(source, {})[release] = text

    def sources(self) -> list[str]:
        """Published source names."""
        return sorted(self._releases)

    def releases(self, source: str) -> list[str]:
        """Release ids of a source, oldest first."""
        try:
            return sorted(self._releases[source])
        except KeyError:
            raise TransportError(f"unknown source {source!r}") from None

    def latest_release(self, source: str) -> str:
        """Greatest release id of a source."""
        releases = self.releases(source)
        if not releases:
            raise TransportError(f"source {source!r} has no releases")
        return releases[-1]

    def fetch(self, source: str, release: str | None = None) -> FetchResult:
        """Fetch a release (latest when unspecified)."""
        start = perf_counter()
        if release is None:
            release = self.latest_release(source)
        try:
            text = self._releases[source][release]
        except KeyError:
            _record_fetch_error(self.metrics, source)
            raise TransportError(
                f"cannot fetch {source!r} release {release!r}") from None
        _record_fetch(self.metrics, source, text, perf_counter() - start)
        return FetchResult(source, release, text)

    def checksum(self, source: str, release: str) -> str:
        """The advertised content checksum of one release (what a real
        mirror publishes next to the dump); lets transport wrappers
        verify payload integrity independently of the fetch."""
        try:
            return content_checksum(self._releases[source][release])
        except KeyError:
            raise TransportError(
                f"no checksum for {source!r} release {release!r}") from None


class DirectoryRepository:
    """A fake FTP site rooted at a directory.

    Layout: ``<base>/<source>/<release>.dat``. Publishing writes files;
    fetching reads them.
    """

    def __init__(self, base: str | Path, metrics=None):
        self.base = Path(base)
        self.metrics = resolve_metrics(metrics)

    def publish(self, source: str, release: str, text: str) -> Path:
        """Write one release file plus its ``<release>.sha`` checksum
        sidecar (the mirror convention that makes corrupted-transfer
        detection possible); returns the release path."""
        source_dir = self.base / source
        source_dir.mkdir(parents=True, exist_ok=True)
        path = source_dir / f"{release}.dat"
        path.write_text(text, encoding="utf-8")
        (source_dir / f"{release}.sha").write_text(
            content_checksum(text), encoding="utf-8")
        return path

    def sources(self) -> list[str]:
        """Source directories present on disk."""
        if not self.base.is_dir():
            return []
        return sorted(p.name for p in self.base.iterdir() if p.is_dir())

    def releases(self, source: str) -> list[str]:
        """Release ids of a source, oldest first."""
        source_dir = self.base / source
        if not source_dir.is_dir():
            raise TransportError(f"unknown source {source!r}")
        return sorted(p.stem for p in source_dir.glob("*.dat"))

    def latest_release(self, source: str) -> str:
        """Greatest release id of a source."""
        releases = self.releases(source)
        if not releases:
            raise TransportError(f"source {source!r} has no releases")
        return releases[-1]

    def fetch(self, source: str, release: str | None = None) -> FetchResult:
        """Read a release from disk (latest when unspecified).

        When a ``<release>.sha`` sidecar exists (``publish`` always
        writes one) the payload is verified against it, so a truncated
        or bit-rotted file on the mirror raises a retryable
        :class:`TransportError` instead of silently loading garbage."""
        start = perf_counter()
        if release is None:
            release = self.latest_release(source)
        path = self.base / source / f"{release}.dat"
        if not path.is_file():
            _record_fetch_error(self.metrics, source)
            raise TransportError(
                f"cannot fetch {source!r} release {release!r}")
        text = path.read_text(encoding="utf-8")
        expected = self.checksum(source, release)
        if expected is not None and content_checksum(text) != expected:
            _record_fetch_error(self.metrics, source)
            raise TransportError(
                f"{source!r} release {release!r}: on-disk payload does "
                f"not match its .sha sidecar (corrupted mirror copy)")
        _record_fetch(self.metrics, source, text, perf_counter() - start)
        return FetchResult(source, release, text)

    def checksum(self, source: str, release: str) -> str | None:
        """The advertised checksum from the ``<release>.sha`` sidecar,
        or None for releases published without one (pre-sidecar
        mirrors stay fetchable, just unverified)."""
        sidecar = self.base / source / f"{release}.sha"
        if not sidecar.is_file():
            return None
        return sidecar.read_text(encoding="utf-8").strip()
