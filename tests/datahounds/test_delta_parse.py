"""A harvest round parses only the entries that changed.

The hound fingerprints each entry's raw text and parses only the
entries whose fingerprint the previous snapshot does not hold. These
tests hold it to the parse-everything oracle: every entry parsed,
keyed and fingerprinted with ``ReleaseSnapshot.build``, which is how
snapshots were built before (and still are by anyone who calls
``ReleaseSnapshot.build`` directly).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

import repro.flatfile.reader as reader
from repro.datahounds import (
    DataHound,
    InMemoryRepository,
    ReleaseSnapshot,
    chunk_fingerprint,
    diff_releases,
    entry_fingerprint,
)
from repro.datahounds.registry import SourceRegistry
from repro.engine import Warehouse
from repro.errors import FlatFileError, TransformError, UnknownDocumentError
from repro.flatfile import (
    Line,
    parse_entries,
    parse_entry,
    render_entries,
    scan_entries,
)
from repro.relational import SqliteBackend
from repro.synth import build_corpus, generate_enzyme_release

SOURCE = "hlx_enzyme"
QUERY = ('FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme '
         'RETURN $a//enzyme_id, $a//enzyme_description')
POOL = parse_entries(generate_enzyme_release(seed=5, count=6))
WORDS = ["alpha", "beta", "gamma"]


class ParseEverythingHound(DataHound):
    """The oracle: parses, keys and fingerprints every entry."""

    def _fingerprint(self, transformer, text, previous):
        keyed = [(transformer.entry_key(entry), entry)
                 for entry in parse_entries(text)]
        fingerprints = ReleaseSnapshot.build("", keyed).fingerprints
        return [(key, fingerprints[key]) for key, __ in keyed], dict(keyed)


def oracle_snapshot(release: str, text: str) -> ReleaseSnapshot:
    transformer = SourceRegistry().create(SOURCE, validate=False)
    return ReleaseSnapshot.build(release, [
        (transformer.entry_key(entry), entry)
        for entry in parse_entries(text)])


def render_variant(index: int, variant: tuple[str, int]) -> list[str]:
    """The raw lines of pool entry ``index`` in one of its spellings:
    ``plain``; ``word`` (its description changed); ``spaced`` (a
    whitespace-only edit inside the description); ``trailing``
    (trailing blanks on every line); ``tabbed`` (a tab in columns 3-5
    of the description line, which parses as blanks)."""
    kind, word = variant
    lines = []
    for line in POOL[index].lines:
        text = line.render()
        if line.code == "DE":
            if kind == "word":
                text = text.rstrip(".") + f" {WORDS[word]}."
            elif kind == "spaced":
                text = "DE   " + line.data.replace(" ", "  ", 1)
            elif kind == "tabbed":
                text = "DE\t  " + line.data
        if kind == "trailing":
            text += " \t " if word else "  "
        lines.append(text)
    return lines + ["//"]


variants = st.tuples(
    st.sampled_from(["plain", "word", "spaced", "trailing", "tabbed"]),
    st.integers(0, len(WORDS) - 1))
releases = st.tuples(
    st.lists(st.one_of(st.none(), variants),
             min_size=len(POOL), max_size=len(POOL)),
    st.booleans())


def answer(warehouse: Warehouse) -> str:
    """The FLWR answer as tagged XML; a release that left the source
    empty has none."""
    try:
        return warehouse.query(QUERY).to_xml()
    except UnknownDocumentError:
        return "not loaded"


def release_text(release) -> str:
    present, crlf = release
    lines = []
    for index, variant in enumerate(present):
        if variant is not None:
            lines.extend(render_variant(index, variant))
    newline = "\r\n" if crlf else "\n"
    return "".join(line + newline for line in lines)


@given(st.lists(releases, min_size=2, max_size=4))
@settings(max_examples=40, deadline=None)
def test_rounds_equal_the_parse_everything_oracle(sequence):
    """Adds, modifications, removals and re-adds, trailing blanks,
    CRLF line ends, tabs in columns 3-5 and whitespace-only edits:
    every round's plan and persisted fingerprints, and the warehouse it
    leaves (row counts and one FLWR answer), equal the oracle's."""
    repository = InMemoryRepository(metrics=False)
    warehouse = Warehouse(metrics=False)
    oracle = Warehouse(metrics=False)
    hound = warehouse.connect(repository)
    oracle_hound = ParseEverythingHound(repository, oracle.loader,
                                        registry=oracle.registry)
    previous = None
    try:
        for number, release in enumerate(sequence):
            name = f"r{number}"
            text = release_text(release)
            repository.publish(SOURCE, name, text)
            report = hound.load(SOURCE)
            expected = oracle_hound.load(SOURCE)
            snapshot = oracle_snapshot(name, text)
            assert report.plan == diff_releases(previous, snapshot)
            assert report.plan == expected.plan
            assert warehouse.loader.load_snapshots()[SOURCE] == (
                name, snapshot.fingerprints)
            assert warehouse.stats() == oracle.stats()
            assert answer(warehouse) == answer(oracle)
            previous = snapshot
    finally:
        warehouse.close()
        oracle.close()


class TestChunkFingerprint:
    def test_equals_entry_fingerprint_on_every_synthetic_entry(self):
        corpus = build_corpus(seed=7, enzyme_count=60, embl_count=60,
                              sprot_count=60, omim_count=20)
        for text in corpus.texts().values():
            for first, lines in scan_entries(text.splitlines()):
                assert chunk_fingerprint(lines) == entry_fingerprint(
                    parse_entry(first, lines))

    def test_trailing_blanks_and_crlf_do_not_change_it(self):
        lines = ["ID   1.1.1.1", "DE   Alcohol dehydrogenase."]
        assert chunk_fingerprint([line + " \t" for line in lines]) == (
            chunk_fingerprint(lines))
        crlf = "ID   1.1.1.1\r\nDE   Alcohol dehydrogenase.\r\n//\r\n"
        ((first, raw),) = scan_entries(crlf.splitlines())
        assert chunk_fingerprint(raw) == chunk_fingerprint(lines)

    def test_whitespace_inside_a_line_changes_it(self):
        assert chunk_fingerprint(["ID   a", "DE   two  words."]) != (
            chunk_fingerprint(["ID   a", "DE   two words."]))

    def test_tab_in_columns_3_to_5_defers_to_parsing(self):
        assert chunk_fingerprint(["ID   a", "DE\t  x."]) is None

    @given(st.lists(st.text(alphabet="ID \t/.x", max_size=9),
                    min_size=1, max_size=4))
    @settings(max_examples=300, deadline=None)
    def test_sound_and_compatible(self, raw_lines):
        """A chunk that parses gets its entry's fingerprint (or None);
        the normalised text of one that does not parse does not parse
        either, so it can never match a loaded entry's fingerprint."""
        lines = [line for line in raw_lines
                 if line.strip() and not line.startswith("//")]
        if not lines:
            return
        digest = chunk_fingerprint(lines)
        try:
            entry = parse_entry(1, lines)
        except FlatFileError:
            normalised = "\n".join(line.rstrip() for line in lines)
            with pytest.raises(FlatFileError):
                parse_entries(normalised + "\n//\n")
            return
        if digest is not None:
            assert digest == entry_fingerprint(entry)
        else:
            assert any(line.rstrip()[2:5].strip(" ") for line in lines)


def enzyme_transformer_class():
    return type(SourceRegistry().create(SOURCE))


class TestOnlyChangedEntriesAreParsed:
    def test_unchanged_entries_reach_neither_parse_line_nor_entry_key(
            self, monkeypatch):
        r1 = generate_enzyme_release(seed=3, count=30)
        entries = parse_entries(r1)
        changed = entries[4].value("ID")
        entries[4].lines.append(Line("CC", "-!- Changed."))
        added = "9.9.9.9"
        r2 = (render_entries(entries)
              + f"ID   {added}\nDE   New entry.\n//\n")
        repository = InMemoryRepository(metrics=False)
        repository.publish(SOURCE, "r1", r1)
        warehouse = Warehouse(metrics=False)
        hound = warehouse.connect(repository)
        hound.load(SOURCE)
        repository.publish(SOURCE, "r2", r2)

        parsed: list[str] = []
        keyed: list[str] = []
        real_parse_line = reader.parse_line
        transformer_class = enzyme_transformer_class()
        real_entry_key = transformer_class.entry_key

        def spy_parse_line(raw, line_number=None):
            line = real_parse_line(raw, line_number)
            if line.code == "ID":
                parsed.append(line.data)
            return line

        def spy_entry_key(self, entry):
            key = real_entry_key(self, entry)
            keyed.append(key)
            return key

        monkeypatch.setattr(reader, "parse_line", spy_parse_line)
        monkeypatch.setattr(transformer_class, "entry_key", spy_entry_key)
        report = hound.load(SOURCE)
        assert sorted(parsed) == sorted([changed, added])
        assert sorted(keyed) == sorted([changed, added])
        assert report.plan.updated == (changed,)
        assert report.plan.added == (added,)
        assert len(report.plan.unchanged) == len(entries) - 1
        warehouse.close()

    def test_load_span_counts_parsed_entries(self):
        r1 = generate_enzyme_release(seed=3, count=12)
        repository = InMemoryRepository(metrics=False)
        repository.publish(SOURCE, "r1", r1)
        warehouse = Warehouse(metrics=False, trace=True)
        hound = warehouse.connect(repository)
        hound.load(SOURCE)
        first = warehouse.tracer.last_span("load")
        assert first.counters["entries"] == first.counters["parsed"] == 12
        repository.publish(SOURCE, "r2", r1 + "ID   9.9.9.9\nDE   New.\n//\n")
        hound.load(SOURCE)
        second = warehouse.tracer.last_span("load")
        assert second.counters["entries"] == 13
        assert second.counters["parsed"] == 1
        warehouse.close()


class TestRestart:
    def test_snapshot_of_entry_fingerprints_then_same_text_is_a_noop(
            self, tmp_path):
        """A snapshot persisted as ``entry_fingerprint`` values (what
        ``ReleaseSnapshot.build`` writes) and an unchanged release:
        the reopened hound's round changes nothing."""
        text = generate_enzyme_release(seed=8, count=25)
        path = tmp_path / "warehouse.sqlite"
        warehouse = Warehouse(backend=SqliteBackend(path), metrics=False)
        warehouse.load_text(SOURCE, text)
        warehouse.loader.save_snapshot(
            SOURCE, "r1", oracle_snapshot("r1", text).fingerprints)
        before = warehouse.stats()
        warehouse.close()

        reopened = Warehouse(backend=SqliteBackend(path), create=False,
                             metrics=False, trace=True)
        repository = InMemoryRepository(metrics=False)
        repository.publish(SOURCE, "r2", text)
        report = reopened.connect(repository).load(SOURCE)
        assert report.plan.is_noop
        assert report.documents_loaded == 0
        assert reopened.tracer.last_span("load").counters["parsed"] == 0
        assert reopened.stats() == before
        assert reopened.loader.load_snapshots()[SOURCE] == (
            "r2", oracle_snapshot("r2", text).fingerprints)
        reopened.close()


class TestMalformedNewEntry:
    R1 = "ID   1.1.1.1\nDE   fine.\n//\nID   1.1.1.3\nDE   also fine.\n//\n"
    #: a new entry that parses but does not transform
    UNTRANSFORMABLE = "ID   1.1.1.2\nDE   broken.\nPR   NOT A PROSITE LINE\n//\n"
    #: a new entry whose second line does not parse (input line 6)
    UNPARSABLE = "ID   1.1.1.2\nDEX  broken.\n//\n"

    def loaded(self, quarantine: bool):
        repository = InMemoryRepository(metrics=False)
        repository.publish(SOURCE, "r1", self.R1)
        warehouse = Warehouse(metrics=False)
        hound = warehouse.connect(repository, quarantine=quarantine)
        hound.load(SOURCE)
        return repository, warehouse, hound

    @pytest.mark.parametrize("quarantine", [False, True])
    def test_unparsable_new_entry_aborts_either_mode(self, quarantine):
        repository, warehouse, hound = self.loaded(quarantine)
        before = (warehouse.stats(), warehouse.loader.load_snapshots())
        repository.publish(SOURCE, "r2", self.R1 + self.UNPARSABLE)
        with pytest.raises(FlatFileError) as caught:
            hound.load(SOURCE)
        assert caught.value.line_number == 8
        assert (warehouse.stats(),
                warehouse.loader.load_snapshots()) == before
        assert hound.loaded_release(SOURCE) == "r1"

    def test_untransformable_new_entry_aborts_strict_mode(self):
        repository, warehouse, hound = self.loaded(quarantine=False)
        before = (warehouse.stats(), warehouse.loader.load_snapshots())
        repository.publish(SOURCE, "r2", self.R1 + self.UNTRANSFORMABLE)
        with pytest.raises(TransformError):
            hound.load(SOURCE)
        assert (warehouse.stats(),
                warehouse.loader.load_snapshots()) == before

    def test_untransformable_new_entry_is_quarantined_and_retried(self):
        repository, warehouse, hound = self.loaded(quarantine=True)
        repository.publish(SOURCE, "r2", self.R1 + self.UNTRANSFORMABLE)
        report = hound.load(SOURCE)
        assert report.quarantined == ("1.1.1.2",)
        assert report.plan.added == ("1.1.1.2",)
        assert "1.1.1.2" not in warehouse.loader.load_snapshots()[SOURCE][1]
        fixed = self.UNTRANSFORMABLE.replace("PR   NOT A PROSITE LINE\n", "")
        repository.publish(SOURCE, "r3", self.R1 + fixed)
        report = hound.load(SOURCE)
        assert report.quarantined == ()
        assert report.plan.added == ("1.1.1.2",)
        assert warehouse.stats()["documents"] == 3


class TestStructuralErrorsKeepLineNumbers:
    @pytest.mark.parametrize("text, message, line_number", [
        ("ID   a\n//\nID   b\n\nDE   x\n//\n", "blank line inside an entry", 4),
        ("ID   a\n//\n\n//\n", "terminator with no entry", 4),
        ("ID   a\n//\nID   b\nDE   x\n", "unterminated final entry (2 lines)",
         4),
        ("ID   a\n//\nID   b\nDEX  x\n\n//\n", "columns 3-5 must be blank", 4),
        ("ID   a\n//\nID   b\nDEX  x\n", "columns 3-5 must be blank", 4),
        ("ID   a\nDEX  x\n//\nID   b\n\n", "columns 3-5 must be blank", 2),
    ])
    def test_parse_and_harvest_report_the_same_line(self, text, message,
                                                    line_number):
        with pytest.raises(FlatFileError) as parsed:
            parse_entries(text)
        assert message in str(parsed.value)
        assert parsed.value.line_number == line_number
        repository = InMemoryRepository(metrics=False)
        repository.publish(SOURCE, "r1", text)
        warehouse = Warehouse(metrics=False)
        with pytest.raises(FlatFileError) as harvested:
            warehouse.connect(repository).load(SOURCE)
        assert str(harvested.value) == str(parsed.value)
        warehouse.close()

    def test_scanner_yields_first_line_numbers(self):
        text = "\nID   a\n//\n\n\nID   b\nDE   x\n//\n"
        assert list(scan_entries(text.splitlines())) == [
            (2, ["ID   a"]), (6, ["ID   b", "DE   x"])]
