"""Shared fixtures.

``warehouse`` is parametrized over both relational backends, so every
integration test runs twice (SQLite and minidb) — differential testing
of the two engines comes for free.
"""

from __future__ import annotations

import pytest

from repro.baselines import NativeXmlStore
from repro.engine import Warehouse
from repro.obs.metrics import default_registry
from repro.relational import MiniDbBackend, SqliteBackend
from repro.synth import build_corpus

CORPUS_SEED = 7
CORPUS_SIZES = dict(enzyme_count=25, embl_count=35, sprot_count=25,
                    omim_count=15)


@pytest.fixture(autouse=True)
def fresh_default_registry():
    """The process-wide registry is what ``health`` reads transport and
    quarantine counters from; whatever an earlier test left there (a
    chaos harvest's quarantined entries, say) must not turn a later
    test's report to ``warn``."""
    default_registry().reset()


@pytest.fixture(scope="session")
def corpus():
    """One deterministic cross-linked corpus for the whole session."""
    return build_corpus(seed=CORPUS_SEED, **CORPUS_SIZES)


@pytest.fixture(params=["sqlite", "minidb"])
def backend(request):
    if request.param == "sqlite":
        instance = SqliteBackend()
    else:
        instance = MiniDbBackend()
    yield instance
    instance.close()


@pytest.fixture
def warehouse(backend, corpus):
    """A warehouse with the test corpus loaded (both backends)."""
    wh = Warehouse(backend=backend)
    wh.load_corpus(corpus)
    return wh


@pytest.fixture
def empty_warehouse(backend):
    return Warehouse(backend=backend)


@pytest.fixture(scope="session")
def native_store(corpus):
    store = NativeXmlStore()
    store.load_corpus(corpus)
    return store
