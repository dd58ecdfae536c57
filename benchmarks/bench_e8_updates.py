"""E8 — incremental update vs full reload.

The paper's second Data Hounds requirement: integrate updates "without
any information being left out or added twice". The payoff of the
entry-level diff is that a refresh touches only changed entries; a
naive mirror reloads everything. We sweep the changed fraction.

Expected shape: incremental cost ∝ changed fraction; full reload flat
at the total-load cost; crossover only as the fraction approaches 1.
"""

import pytest

from repro.datahounds import InMemoryRepository
from repro.engine import Warehouse
from repro.relational import SqliteBackend
from repro.synth import generate_enzyme_release, mutate_release

BASE_SIZE = 200
FRACTIONS = [0.05, 0.25, 0.5]


def make_releases(fraction):
    release_1 = generate_enzyme_release(seed=23, count=BASE_SIZE)
    release_2 = mutate_release(release_1, seed=29,
                               update_fraction=fraction,
                               remove_fraction=fraction / 5)
    return release_1, release_2


@pytest.mark.parametrize("fraction", FRACTIONS)
def test_e8_incremental_refresh(benchmark, fraction):
    release_1, release_2 = make_releases(fraction)

    def setup():
        repository = InMemoryRepository()
        repository.publish("hlx_enzyme", "r1", release_1)
        repository.publish("hlx_enzyme", "r2", release_2)
        warehouse = Warehouse(backend=SqliteBackend())
        hound = warehouse.connect(repository)
        hound.load("hlx_enzyme", "r1")
        return (hound,), {}

    def refresh(hound):
        return hound.load("hlx_enzyme", "r2")

    report = benchmark.pedantic(refresh, setup=setup, rounds=3,
                                iterations=1)
    assert report.plan.unchanged
    benchmark.extra_info["changed_fraction"] = fraction
    benchmark.extra_info["reloaded_documents"] = report.documents_loaded


@pytest.mark.parametrize("fraction", FRACTIONS)
def test_e8_full_reload_baseline(benchmark, fraction):
    """The naive mirror: drop and reload release 2 wholesale."""
    __, release_2 = make_releases(fraction)

    def reload():
        warehouse = Warehouse(backend=SqliteBackend())
        count = warehouse.load_text("hlx_enzyme", release_2)
        warehouse.close()
        return count

    count = benchmark.pedantic(reload, rounds=3, iterations=1)
    assert count > 0
    benchmark.extra_info["changed_fraction"] = fraction
    benchmark.extra_info["reloaded_documents"] = count


def test_e8_diff_detection_cost(benchmark):
    """The overhead side: computing the diff itself by parsing and
    fingerprinting both releases (the parse-everything oracle), without
    applying anything."""
    from repro.datahounds import ReleaseSnapshot, diff_releases
    from repro.datahounds.sources.enzyme import EnzymeTransformer
    from repro.flatfile import parse_entries

    release_1, release_2 = make_releases(0.25)
    transformer = EnzymeTransformer()

    def run():
        old = ReleaseSnapshot.build("r1", [
            (transformer.entry_key(e), e)
            for e in parse_entries(release_1)])
        new = ReleaseSnapshot.build("r2", [
            (transformer.entry_key(e), e)
            for e in parse_entries(release_2)])
        return diff_releases(old, new)

    plan = benchmark(run)
    assert plan.updated


def test_e8_raw_text_fingerprints(benchmark):
    """What a refresh pays for the entries it does not reload: split a
    release into entries and fingerprint each one's raw text, with no
    parsing (the hound parses only the entries whose fingerprint is
    new)."""
    from repro.datahounds import entry_fingerprint
    from repro.datahounds import chunk_fingerprint
    from repro.flatfile import parse_entries, scan_entries

    __, release_2 = make_releases(0.25)

    def run():
        return [chunk_fingerprint(lines)
                for __, lines in scan_entries(release_2.splitlines())]

    fingerprints = benchmark(run)
    assert fingerprints == [entry_fingerprint(entry)
                            for entry in parse_entries(release_2)]
