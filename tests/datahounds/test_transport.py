"""Unit tests for the simulated transport layer."""

import pytest

from repro.datahounds import (
    DirectoryRepository,
    InMemoryRepository,
    content_checksum,
)
from repro.errors import TransportError


class TestInMemoryRepository:
    def repo(self):
        repo = InMemoryRepository()
        repo.publish("hlx_enzyme", "r1", "ID   a\n//\n")
        repo.publish("hlx_enzyme", "r2", "ID   b\n//\n")
        return repo

    def test_sources_listed(self):
        assert self.repo().sources() == ["hlx_enzyme"]

    def test_releases_sorted(self):
        assert self.repo().releases("hlx_enzyme") == ["r1", "r2"]

    def test_latest_release(self):
        assert self.repo().latest_release("hlx_enzyme") == "r2"

    def test_fetch_specific_release(self):
        fetched = self.repo().fetch("hlx_enzyme", "r1")
        assert fetched.release == "r1"
        assert "ID   a" in fetched.text

    def test_fetch_defaults_to_latest(self):
        assert self.repo().fetch("hlx_enzyme").release == "r2"

    def test_unknown_source_rejected(self):
        with pytest.raises(TransportError):
            self.repo().fetch("nope")

    def test_unknown_release_rejected(self):
        with pytest.raises(TransportError):
            self.repo().fetch("hlx_enzyme", "r99")

    def test_checksum_stable_and_distinct(self):
        repo = self.repo()
        first = repo.fetch("hlx_enzyme", "r1")
        again = repo.fetch("hlx_enzyme", "r1")
        other = repo.fetch("hlx_enzyme", "r2")
        assert first.checksum == again.checksum
        assert first.checksum != other.checksum


class TestDirectoryRepository:
    def test_publish_and_fetch(self, tmp_path):
        repo = DirectoryRepository(tmp_path)
        repo.publish("hlx_enzyme", "r1", "ID   a\n//\n")
        fetched = repo.fetch("hlx_enzyme")
        assert fetched.release == "r1"
        assert fetched.text == "ID   a\n//\n"

    def test_releases_sorted_on_disk(self, tmp_path):
        repo = DirectoryRepository(tmp_path)
        repo.publish("s", "r2", "b")
        repo.publish("s", "r1", "a")
        assert repo.releases("s") == ["r1", "r2"]

    def test_missing_source_rejected(self, tmp_path):
        with pytest.raises(TransportError):
            DirectoryRepository(tmp_path).releases("missing")

    def test_sources_empty_when_base_missing(self, tmp_path):
        repo = DirectoryRepository(tmp_path / "nothing")
        assert repo.sources() == []


class TestChecksum:
    def test_checksum_is_short_hex(self):
        value = content_checksum("abc")
        assert len(value) == 16
        int(value, 16)  # parses as hex


class TestAdvertisedChecksums:
    def test_in_memory_checksum_matches_content(self):
        repo = InMemoryRepository()
        repo.publish("s", "r1", "ID   a\n//\n")
        assert repo.checksum("s", "r1") == content_checksum("ID   a\n//\n")

    def test_in_memory_checksum_unknown_release_rejected(self):
        repo = InMemoryRepository()
        repo.publish("s", "r1", "x")
        with pytest.raises(TransportError):
            repo.checksum("s", "r99")

    def test_publish_writes_sha_sidecar(self, tmp_path):
        repo = DirectoryRepository(tmp_path)
        repo.publish("s", "r1", "ID   a\n//\n")
        sidecar = tmp_path / "s" / "r1.sha"
        assert sidecar.read_text() == content_checksum("ID   a\n//\n")
        assert repo.checksum("s", "r1") == content_checksum("ID   a\n//\n")

    def test_checksum_none_without_sidecar(self, tmp_path):
        repo = DirectoryRepository(tmp_path)
        repo.publish("s", "r1", "x")
        (tmp_path / "s" / "r1.sha").unlink()
        assert repo.checksum("s", "r1") is None


class TestSidecarVerification:
    def test_corrupted_file_rejected(self, tmp_path):
        """A bit-rotted release file no longer matches its sidecar —
        the fetch must fail instead of loading garbage."""
        repo = DirectoryRepository(tmp_path)
        repo.publish("s", "r1", "ID   a\n//\n")
        (tmp_path / "s" / "r1.dat").write_text("ID   GARBAGE\n//\n",
                                               encoding="utf-8")
        with pytest.raises(TransportError, match="corrupted mirror"):
            repo.fetch("s", "r1")

    def test_truncated_file_rejected(self, tmp_path):
        repo = DirectoryRepository(tmp_path)
        repo.publish("s", "r1", "ID   a\nDE   b.\n//\n")
        path = tmp_path / "s" / "r1.dat"
        path.write_text(path.read_text(encoding="utf-8")[:5],
                        encoding="utf-8")
        with pytest.raises(TransportError, match="corrupted mirror"):
            repo.fetch("s", "r1")

    def test_sidecarless_release_still_fetches(self, tmp_path):
        """Pre-sidecar mirrors stay fetchable, just unverified."""
        repo = DirectoryRepository(tmp_path)
        repo.publish("s", "r1", "ID   a\n//\n")
        (tmp_path / "s" / "r1.sha").unlink()
        assert repo.fetch("s", "r1").text == "ID   a\n//\n"


class TestFetchErrorCounter:
    def test_in_memory_missing_release_counted(self):
        from repro.obs import MetricsRegistry
        metrics = MetricsRegistry()
        repo = InMemoryRepository(metrics=metrics)
        repo.publish("s", "r1", "x")
        with pytest.raises(TransportError):
            repo.fetch("s", "r99")
        assert metrics.get_counter("transport.fetch_errors",
                                   source="s") == 1

    def test_directory_failures_counted(self, tmp_path):
        from repro.obs import MetricsRegistry
        metrics = MetricsRegistry()
        repo = DirectoryRepository(tmp_path, metrics=metrics)
        repo.publish("s", "r1", "ID   a\n//\n")
        with pytest.raises(TransportError):
            repo.fetch("s", "r99")                       # missing file
        (tmp_path / "s" / "r1.dat").write_text("junk", encoding="utf-8")
        with pytest.raises(TransportError):
            repo.fetch("s", "r1")                        # corrupted file
        assert metrics.get_counter("transport.fetch_errors",
                                   source="s") == 2

    def test_metrics_false_fetches_and_records_nothing(self, tmp_path):
        from repro.obs import default_registry
        for repo in (InMemoryRepository(metrics=False),
                     DirectoryRepository(tmp_path, metrics=False)):
            repo.publish("s", "r1", "ID   a\n//\n")
            assert repo.fetch("s", "r1").text == "ID   a\n//\n"
            with pytest.raises(TransportError):
                repo.fetch("s", "r99")
        assert default_registry().snapshot() == {
            "counters": [], "gauges": [], "histograms": []}
