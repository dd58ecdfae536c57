"""Distributed tracing through the federation: one connected span
tree per request across the coordinator, the scatter-gather worker
threads, and every shard warehouse's SQL.

Regression anchor: ScatterGatherExecutor workers used to synthesize
detached per-shard spans after the fact, so a trace of a federated
query was a forest with no shard detail. Now workers open real spans parented under the
coordinator's ``federated_query`` span via the explicit cross-thread
handoff, and shard warehouses share the coordinator's tracer.
"""

from __future__ import annotations

import pytest

from tests.federation.conftest import (
    FIG11_JOIN,
    ROUTING_PARTITIONED,
    ROUTING_PER_SOURCE,
    build_federation,
)


@pytest.fixture
def traced_fed(corpus):
    federation = build_federation(corpus, ROUTING_PER_SOURCE,
                                  metrics=False, trace=True)
    yield federation
    federation.close()


@pytest.fixture
def traced_partitioned(corpus):
    federation = build_federation(corpus, ROUTING_PARTITIONED,
                                  metrics=False, trace=True)
    yield federation
    federation.close()


def assert_connected(root):
    """Every span in the tree carries the root's trace id and a parent
    link to the span it hangs under — a single connected tree."""
    assert root.trace_id
    for span in root.walk():
        assert span.trace_id == root.trace_id, span.name
        for child in span.children:
            assert child.parent_id == span.span_id, child.name


class TestFederatedQueryTrace:
    def test_single_tree_with_shard_subqueries(self, traced_fed):
        result = traced_fed.query(FIG11_JOIN)
        assert len(result) > 0
        root = traced_fed.tracer.last_span("federated_query")
        assert root is not None
        assert_connected(root)
        shard_spans = [s for s in root.children
                       if s.name == "shard_subquery"]
        assert {s.meta["shard"] for s in shard_spans} == {"s0", "s1"}
        assert root.find("coordinator_join") is not None

    def test_shard_spans_contain_shard_side_sql(self, traced_fed):
        traced_fed.query(FIG11_JOIN)
        root = traced_fed.tracer.last_span("federated_query")
        for shard_span in root.children:
            if shard_span.name != "shard_subquery":
                continue
            # the shard warehouse's own query pipeline nests inside the
            # worker's span: its SQL statements are in this subtree
            query_span = shard_span.find("query")
            assert query_span is not None, shard_span.meta
            assert query_span.all_statements()
            assert shard_span.counters.get("rows_shipped", 0) >= 0

    def test_partitioned_source_fans_out_per_shard(
            self, traced_partitioned):
        traced_partitioned.query(
            'FOR $a IN document("hlx_embl.inv")/hlx_n_sequence '
            'RETURN $a//embl_accession_number')
        root = traced_partitioned.tracer.last_span("federated_query")
        assert_connected(root)
        shards = [s.meta["shard"] for s in root.children
                  if s.name == "shard_subquery"]
        assert sorted(shards) == ["s1", "s2", "s3"]

    def test_plan_span_precedes_scatter(self, traced_fed):
        traced_fed.query(FIG11_JOIN)
        tracer = traced_fed.tracer
        plan = tracer.last_span("plan")
        scatter = tracer.last_span("federated_query")
        assert plan is not None and scatter is not None
        assert plan.meta["fanout"] >= 2
        assert plan.end <= scatter.start + 1e-6

    def test_trace_counters_survive_worker_threads(self, traced_fed):
        result = traced_fed.query(FIG11_JOIN)
        root = traced_fed.tracer.last_span("federated_query")
        shipped = root.total_counter("rows_shipped")
        assert shipped > 0
        join = root.find("coordinator_join")
        assert join.counters.get("combos", 0) >= len(result)


class TestSlowQueryAttribution:
    def test_slow_log_carries_shard_and_trace_id(self, corpus):
        federation = build_federation(corpus, ROUTING_PER_SOURCE,
                                      metrics=False, trace=True)
        try:
            # threshold 0: every shard-side query is "slow"
            for name in federation.catalog.shard_names():
                warehouse = federation.catalog.warehouse(name)
                warehouse.slow_queries.threshold_ms = 0.0
            federation.query(FIG11_JOIN)
            root = federation.tracer.last_span("federated_query")
            records = [record
                       for name in federation.catalog.shard_names()
                       for record in federation.catalog.warehouse(
                           name).slow_queries.records()]
            assert records
            by_shard = {record.shard for record in records}
            assert by_shard <= {"s0", "s1", "s2", "s3"}
            assert "" not in by_shard
            # every slow record points back into the request's trace
            assert {record.trace_id for record in records} \
                == {root.trace_id}
        finally:
            federation.close()

    def test_untraced_slow_log_has_empty_trace_id(self, corpus):
        federation = build_federation(corpus, ROUTING_PER_SOURCE,
                                      metrics=False)
        try:
            warehouse = federation.catalog.warehouse("s0")
            warehouse.slow_queries.threshold_ms = 0.0
            federation.query(
                'FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme '
                'RETURN $a//enzyme_id')
            (record, *__) = warehouse.slow_queries.records()
            assert record.shard == "s0"
            assert record.trace_id == ""
            assert record.to_dict()["shard"] == "s0"
        finally:
            federation.close()
