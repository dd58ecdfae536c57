"""Planner statistics are refreshed only when the document count drifts.

``WarehouseLoader.optimize`` runs ANALYZE when the ``documents`` row
count of some source has moved by more than ``ANALYZE_DRIFT`` since the
last ANALYZE. A first load, a new source and a round that doubles or
halves a source all analyze; a run of small harvest rounds does not,
and leaves the same plans and answers as a warehouse analyzed after
every round.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.datahounds import InMemoryRepository
from repro.engine import Warehouse
from repro.flatfile import Line, parse_entries, render_entries
from repro.obs import MetricsRegistry
from repro.relational import MiniDbBackend, SqliteBackend
from repro.shredding.loader import ANALYZE_DRIFT
from repro.synth import build_corpus, generate_enzyme_release
from repro.xmlkit import parse_document

SOURCE = "hlx_enzyme"
FIGURE_9 = ('FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme '
            'WHERE contains($a//catalytic_activity, "ketone") '
            'RETURN $a//enzyme_id')
FIGURE_11 = '''
FOR $a IN document("hlx_embl.inv")/hlx_n_sequence/db_entry,
    $b IN document("hlx_enzyme.DEFAULT")/hlx_enzyme/db_entry
WHERE $a//qualifier[@qualifier_type = "EC_number"] = $b/enzyme_id
RETURN $Accession_Number = $a//embl_accession_number,
       $Accession_Description = $a//description
'''


class CountingSqlite(SqliteBackend):
    """Counts the ANALYZE statements it runs."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.analyzed = 0

    def analyze(self) -> None:
        self.analyzed += 1
        super().analyze()


def small_rounds(text: str, count: int, seed: int):
    """``count`` successive releases, each revising 1 % of the entries,
    dropping 0.5 % and bringing back the previous round's drops."""
    rng = random.Random(seed)
    entries = parse_entries(text)
    present = [True] * len(entries)
    revise = max(1, len(entries) // 100)
    drop = max(1, len(entries) // 200)
    dropped: list[int] = []
    for number in range(count):
        live = [index for index, here in enumerate(present) if here]
        touched = rng.sample(live, revise + drop)
        for index in touched[:revise]:
            entries[index].lines.append(
                Line("CC", f"-!- Revised in round {number}."))
        for index in dropped:
            present[index] = True
        dropped = touched[revise:]
        for index in dropped:
            present[index] = False
        yield render_entries(entry for entry, here
                             in zip(entries, present) if here)


def harvested(texts: dict[str, str], **options):
    backend = CountingSqlite()
    warehouse = Warehouse(backend=backend, **options)
    repository = InMemoryRepository(metrics=False)
    hound = warehouse.connect(repository)
    for source, text in texts.items():
        repository.publish(source, "r0", text)
        hound.load(source)
    return warehouse, backend, repository, hound


class TestDriftRule:
    def test_first_load_analyzes(self):
        text = generate_enzyme_release(seed=4, count=40)
        warehouse, backend, __, __ = harvested({SOURCE: text}, trace=True)
        assert backend.analyzed == 1
        span = warehouse.tracer.last_span("load").find("optimize")
        assert span.counters["analyzed"] == 1
        assert span.meta["drift"] == 40
        warehouse.close()

    def test_doubling_and_halving_a_source_analyze(self):
        entries = parse_entries(generate_enzyme_release(seed=4, count=80))
        warehouse, backend, repository, hound = harvested(
            {SOURCE: render_entries(entries[:40])})
        repository.publish(SOURCE, "r1", render_entries(entries))
        hound.load(SOURCE)
        assert backend.analyzed == 2
        repository.publish(SOURCE, "r2", render_entries(entries[40:]))
        hound.load(SOURCE)
        assert backend.analyzed == 3
        warehouse.close()

    def test_first_load_of_a_small_new_source_analyzes(self):
        """A new source is drift however small it is next to the rest:
        statistics without it misjudge how the sources split the
        documents."""
        corpus = build_corpus(seed=7, enzyme_count=200, embl_count=5,
                              sprot_count=5)
        __, backend, __, __ = harvested(corpus.texts())
        assert backend.analyzed == 3

    def test_small_rounds_do_not_analyze(self):
        text = generate_enzyme_release(seed=4, count=200)
        warehouse, backend, repository, hound = harvested(
            {SOURCE: text}, trace=True)
        for number, release in enumerate(small_rounds(text, 10, seed=1)):
            repository.publish(SOURCE, f"r{number + 1:03d}", release)
            report = hound.load(SOURCE)
            assert not report.plan.is_noop
            span = warehouse.tracer.last_span("load").find("optimize")
            assert span.counters["analyzed"] == 0
            assert span.meta["drift"] <= ANALYZE_DRIFT
        assert backend.analyzed == 1
        warehouse.close()

    def test_plans_and_answers_match_analyzing_every_round(self):
        corpus = build_corpus(seed=7, enzyme_count=200, embl_count=60,
                              sprot_count=20)
        texts = corpus.texts()
        sides = [harvested(texts, metrics=MetricsRegistry(),
                           slow_query_ms=0.0) for __ in range(2)]
        rounds = list(small_rounds(texts[SOURCE], 10, seed=2))
        for number, release in enumerate(rounds):
            for warehouse, backend, repository, hound in sides:
                repository.publish(SOURCE, f"r{number + 1:03d}", release)
                hound.load(SOURCE)
            # the reference side refreshes its statistics every round
            sides[1][1].analyze()
        drift, every = sides[0][1].analyzed, sides[1][1].analyzed
        assert every - drift == len(rounds)
        for query in (FIGURE_9, FIGURE_11):
            answers, plans = [], []
            for warehouse, __, __, __ in sides:
                answers.append(warehouse.query(query).to_xml())
                plans.append(warehouse.slow_queries.records()[-1].plans)
            assert answers[0] == answers[1]
            assert plans[0] == plans[1]
            assert any("USING" in line for lines in plans[0].values()
                       for line in lines)
        for warehouse, __, __, __ in sides:
            warehouse.close()


@pytest.mark.parametrize("make_backend", [SqliteBackend, MiniDbBackend])
def test_document_tally_follows_commits_and_rollbacks(make_backend):
    """The loader's per-source document counts come from the sessions'
    own tallies; they must equal the table's row counts after upserts,
    removals and a rolled-back session."""
    warehouse = Warehouse(backend=make_backend(), metrics=False)
    loader = warehouse.loader

    def count() -> Counter:
        return Counter(dict(warehouse.backend.execute(
            "SELECT source, COUNT(*) FROM documents GROUP BY source")))

    def document(value: str):
        return parse_document(f"<r><v>{value}</v></r>")

    with loader.bulk_session(batch_size=2) as session:
        for key in "abcde":
            session.add("s", "c", key, document(key))
        session.add("s", "c", "a", document("again"))
    assert +loader.documents == count() == Counter(s=5)
    with loader.bulk_session() as session:
        session.add("s", "other", "b", document("moved"))
        session.add("t", "c", "b", document("other source"))
        session.remove("s", "c")
        session.remove("s", "missing")
    assert +loader.documents == count() == Counter(s=4, t=1)
    with pytest.raises(RuntimeError):
        with loader.bulk_session(batch_size=1) as session:
            session.add("s", "c", "f", document("f"))
            session.add("s", "c", "g", document("g"))
            raise RuntimeError("abort")
    assert +loader.documents == count()
    reopened = Warehouse(backend=warehouse.backend, create=False,
                         metrics=False)
    assert reopened.loader.documents == loader.documents
    warehouse.close()
