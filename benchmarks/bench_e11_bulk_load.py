"""E11 — batched bulk load vs per-document commits.

The seed loader ran one transaction per document: an existing-entry
lookup, up to seven statements, and a commit for every entry of a
release. :class:`~repro.shredding.loader.BulkLoadSession` batches the
same work — one ``executemany`` per table per batch, one commit per
session, secondary indexes deferred and bulk-built on initial loads.
The per-document leg is ``store_document``, a session of one.
This experiment measures the store phase of a 2k-entry synthetic
ENZYME release both ways, on an on-disk sqlite warehouse (the
deployment shape: the paper's warehouse is a persistent database, not
a scratch in-memory one).

Expected shape: the bulk pipeline sustains ≥3x the docs/sec of the
per-document-commit path the seed shipped. Note the baseline leg here
runs the *current* code, which is itself faster than the seed
(memoized shredding, reused cursor, bigger page cache), so the
measured in-tree ratio understates the improvement over the seed.
"""

import pytest

from repro.datahounds.registry import SourceRegistry
from repro.engine import Warehouse
from repro.flatfile import parse_entries
from repro.relational import SqliteBackend
from repro.shredding import WarehouseLoader
from repro.synth import generate_enzyme_release

CORPUS_SIZE = 2_000


@pytest.fixture(scope="module")
def staged_docs():
    """Pre-transformed (collection, entry_key, document) triples, so
    the legs time the store phase alone — the hound's two-phase design
    transforms before it stores."""
    text = generate_enzyme_release(seed=11, count=CORPUS_SIZE)
    transformer = SourceRegistry().create("hlx_enzyme")
    return [(transformer.collection_of(entry),
             transformer.entry_key(entry),
             transformer.transform_entry(entry))
            for entry in parse_entries(text)]


@pytest.fixture(scope="module")
def release_text():
    return generate_enzyme_release(seed=11, count=CORPUS_SIZE)


def _fresh_loader(tmp_path_factory):
    path = tmp_path_factory.mktemp("e11") / "warehouse.sqlite"
    return WarehouseLoader(SqliteBackend(path))


def test_e11_per_document_commit_baseline(benchmark, staged_docs,
                                          tmp_path_factory):
    """The seed's strategy: lookup + insert + commit per document."""
    def setup():
        return (_fresh_loader(tmp_path_factory),), {}

    def per_document(loader):
        for collection, key, document in staged_docs:
            loader.store_document("hlx_enzyme", collection, key, document)
        loader.backend.close()

    benchmark.pedantic(per_document, setup=setup, rounds=3, iterations=1)
    benchmark.extra_info["documents"] = len(staged_docs)
    benchmark.extra_info["docs_per_second"] = round(
        len(staged_docs) / benchmark.stats.stats.min)


def test_e11_bulk_load_pipeline(benchmark, staged_docs, tmp_path_factory):
    """The batched path: buffered shreds, one executemany per table
    per batch, one commit per session, deferred index build."""
    def setup():
        return (_fresh_loader(tmp_path_factory),), {}

    def bulk(loader):
        with loader.bulk_session() as session:
            for collection, key, document in staged_docs:
                session.add("hlx_enzyme", collection, key, document)
        loader.backend.close()

    benchmark.pedantic(bulk, setup=setup, rounds=3, iterations=1)
    benchmark.extra_info["documents"] = len(staged_docs)
    benchmark.extra_info["docs_per_second"] = round(
        len(staged_docs) / benchmark.stats.stats.min)


def test_e11_bulk_vs_per_document_ratio(benchmark, staged_docs,
                                        tmp_path_factory):
    """Both legs in one process, back to back, so the ratio is not at
    the mercy of cross-run machine drift; the benchmarked callable is
    the bulk leg, the ratio lands in extra_info."""
    import time

    def run_once(fn):
        loader = _fresh_loader(tmp_path_factory)
        start = time.perf_counter()
        fn(loader)
        elapsed = time.perf_counter() - start
        loader.backend.close()
        return elapsed

    def per_document(loader):
        for collection, key, document in staged_docs:
            loader.store_document("hlx_enzyme", collection, key, document)

    def bulk(loader):
        with loader.bulk_session() as session:
            for collection, key, document in staged_docs:
                session.add("hlx_enzyme", collection, key, document)

    per_doc_seconds = min(run_once(per_document) for _ in range(3))
    bulk_seconds = benchmark.pedantic(
        lambda: run_once(bulk), rounds=3, iterations=1)
    bulk_seconds = benchmark.stats.stats.min
    ratio = per_doc_seconds / bulk_seconds
    benchmark.extra_info["documents"] = len(staged_docs)
    benchmark.extra_info["per_document_seconds"] = round(per_doc_seconds, 4)
    benchmark.extra_info["bulk_seconds"] = round(bulk_seconds, 4)
    benchmark.extra_info["speedup"] = round(ratio, 2)
    assert ratio > 1.5, f"bulk path only {ratio:.2f}x over per-document"


def test_e11_end_to_end_load_text(benchmark, release_text,
                                  tmp_path_factory):
    """The whole pipeline a user sees: parse + transform + validate +
    bulk store + ANALYZE (transform cost is shared by both strategies,
    so this leg's speedup is smaller than the store-phase ratio)."""
    def setup():
        path = tmp_path_factory.mktemp("e11") / "warehouse.sqlite"
        return (Warehouse(backend=SqliteBackend(path)),), {}

    def load(warehouse):
        count = warehouse.load_text("hlx_enzyme", release_text)
        warehouse.close()
        return count

    benchmark.pedantic(load, setup=setup, rounds=3, iterations=1)
    benchmark.extra_info["documents"] = CORPUS_SIZE
    benchmark.extra_info["docs_per_second"] = round(
        CORPUS_SIZE / benchmark.stats.stats.min)
