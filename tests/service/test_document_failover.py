"""``GET /documents/{doc_id}`` on a federation follows breaker order:
a shard whose primary's breaker is open answers from its replica, and
the primary sees no statement at all — even though it is reachable."""

from __future__ import annotations

import pytest

from repro.federation import FederatedXomatiQ, ShardCatalog
from repro.federation.executor import FaultPolicy
from repro.service import QueryService, ServiceConfig
from repro.synth import build_corpus
from repro.xmlkit import serialize


class CountingBackend:
    """Counts the statements a backend is asked to run."""

    def __init__(self, inner):
        self.inner = inner
        self.statements = 0

    def execute(self, sql, params=()):
        self.statements += 1
        return self.inner.execute(sql, params)

    def __getattr__(self, name):
        return getattr(self.inner, name)


@pytest.fixture
def open_primary():
    catalog = ShardCatalog()
    catalog.add_shard("s0")
    catalog.add_replica("s0")
    catalog.add_shard("s1")
    catalog.assign("hlx_enzyme", "s0")
    catalog.assign("hlx_embl", "s1")
    catalog.assign("hlx_sprot", "s1")
    federation = FederatedXomatiQ(
        catalog, metrics=False,
        fault_policy=FaultPolicy(breaker_threshold=1,
                                 breaker_cooldown_s=600.0))
    federation.load_corpus(build_corpus(seed=7, enzyme_count=8,
                                        embl_count=8, sprot_count=8))
    federation.executor.breaker("s0").record_failure()
    assert federation.executor.breaker_is_open("s0")
    primary = catalog.warehouse("s0")
    counting = primary.backend = CountingBackend(primary.backend)
    service = QueryService(federation, config=ServiceConfig())
    yield service, catalog, counting
    service.close()


@pytest.mark.parametrize("query", ["", "?shard=s0"])
def test_replica_answers_and_primary_sees_no_statement(open_primary,
                                                       query):
    service, catalog, counting = open_primary
    expected = serialize(catalog.warehouse("s0#r0").fetch_document(1))
    response = service.handle("GET", f"/documents/1{query}")
    assert response.status == 200
    assert response.encoded().decode("utf-8") == expected
    assert counting.statements == 0
