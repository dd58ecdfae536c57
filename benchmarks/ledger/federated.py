"""federated_join: a FLWR text answered across four shards.

An in-process ``FederatedXomatiQ`` over 4 in-memory shards — ENZYME
and Swiss-Prot whole on ``s0``, EMBL split over ``s1..s3`` — with
optimizer statistics collected in set-up. One caller in a closed
loop: 50 % Figure 11-shape joins (every shard, coordinator join),
30 % ENZYME sub-tree queries (prunable to one shard), 20 % keyword
search. A monolithic warehouse over the same corpus is the
byte-identity oracle.
"""

from __future__ import annotations

import json
from itertools import accumulate
from time import perf_counter

import harvest
import inputs
import library
from harness import (Answers, Context, Measurement, closed_loop, digest,
                     median, mix_metrics, throughput)
from spec import SHARDS
from trace import TimedBackend, relational_metrics

from repro.engine import Warehouse
from repro.federation import FederatedXomatiQ, ShardCatalog
from repro.relational.sqlite_backend import SqliteBackend
from repro.xmlkit import serialize

SEQUENCE_LENGTH = 5_000
#: hits asked of a keyword search, above any phrase's hit count, so
#: federated and monolithic answers hold the same set and ties in the
#: ranking (broken by shard there, by doc id here) cannot matter
KEYWORD_LIMIT = 10_000


class Incomplete(Exception):
    """A federated answer that degraded to partial results."""


class Federation:
    """The four shards, their catalog and the facade over them."""

    def __init__(self, ctx: Context, timed: bool = False):
        self.corpus = inputs.corpus(ctx.scale.query_corpus)
        self.texts = self.corpus.texts()
        catalog = ShardCatalog()
        names = [f"s{index}" for index in range(SHARDS)]
        self.timed: list[TimedBackend] = []
        for name in names:
            if timed:
                # no recorder: shard statements run on executor threads,
                # so they are attributed by counter growth, not by spans
                self.timed.append(TimedBackend(SqliteBackend()))
                catalog.attach(name, Warehouse(backend=self.timed[-1]))
            else:
                catalog.add_shard(name)
        catalog.assign("hlx_enzyme", names[0])
        catalog.assign("hlx_sprot", names[0])
        catalog.assign("hlx_embl", *names[1:])
        # one scatter worker in the traced pass, so shard busy time is
        # serial and subtracts cleanly from the query's wall time
        self.engine = FederatedXomatiQ(catalog,
                                       max_workers=1 if timed else None)
        start = perf_counter()
        self.engine.load_corpus(self.corpus)
        self.build_s = perf_counter() - start
        self.engine.analyze()
        self.db_bytes = sum(library.page_bytes(catalog.warehouse(name).backend)
                            for name in names)
        self._attached = [catalog.warehouse(name) for name in names] \
            if timed else []

    def sequence(self, ctx: Context) -> list[inputs.Op]:
        return inputs.draw_sequence(ctx.rng("federated-ops"),
                                    inputs.federated_mix(), SEQUENCE_LENGTH)

    def close(self) -> None:
        self.engine.close()
        for warehouse in self._attached:   # attached ones stay ours
            warehouse.close()


def _hits(found: list[dict]) -> str:
    """Keyword hits without shard-local identifiers, in one order."""
    return json.dumps(sorted((hit["source"], hit["entry_key"],
                              hit["matches"]) for hit in found))


def execute_on(engine):
    """``execute(op)`` over a federation or a monolithic warehouse."""
    def execute(op: inputs.Op) -> str:
        if op.kind == "keyword":
            phrase, source = op.arg
            return _hits(engine.keyword_search(phrase, source=source,
                                               limit=KEYWORD_LIMIT))
        result = engine.query(op.arg)
        if not result.complete:
            raise Incomplete(op.key)
        return result.to_xml()
    return execute


def monolithic(corpus) -> Warehouse:
    """The oracle: one warehouse over the whole corpus."""
    warehouse = Warehouse(metrics=False)
    warehouse.load_corpus(corpus)
    return warehouse


def setup(ctx: Context, timed: bool = False) -> Federation:
    """Corpus, four shards loaded, optimizer statistics collected."""
    return Federation(ctx, timed)


def teardown(federation: Federation) -> None:
    federation.close()


def _documents(engine, oracle: Warehouse, seconds: float) -> Measurement:
    """Whole-document fetch + serialisation through the federation for
    ``seconds``, over the EMBL entries the Figure 11 join binds; each
    must equal the monolithic warehouse's document for the same entry.
    """
    nodes = [row.bindings["a"] for row in engine.query(inputs.FIGURE_11).rows]
    fetched: dict[int, str] = {}
    latencies = []
    begin = perf_counter()
    while perf_counter() - begin < seconds:
        index = len(latencies) % len(nodes)
        start = perf_counter()
        fetched[index] = serialize(engine.fetch_document(nodes[index]))
        latencies.append(perf_counter() - start)
    failed = 0
    for index, document in fetched.items():
        node = nodes[index]
        key = engine.catalog.warehouse(node.shard).backend.execute(
            "SELECT entry_key FROM documents WHERE doc_id = ?",
            (node.doc_id,))[0][0]
        same = oracle.backend.execute(
            "SELECT doc_id FROM documents WHERE source = ? "
            "AND entry_key = ?", ("hlx_embl", key))[0][0]
        failed += document != serialize(oracle.fetch_document(same))
    return Measurement(
        metrics={"document_p50_ms": median(latencies) * 1e3},
        samples={"document_p50_ms": len(latencies)},
        attempted=len(fetched), failed=failed)


def measure(ctx: Context, federation: Federation, seconds: float,
            phases: bool = True) -> Measurement:
    """The closed loop, then byte identity with the monolithic
    warehouse for every distinct operation; then documents fetched
    through the federation, and a short harvest phase on the shard
    that holds ENZYME."""
    answers = Answers()
    metrics, samples = mix_metrics([closed_loop(
        federation.sequence(ctx), execute_on(federation.engine), answers,
        seconds=seconds, warmup=seconds / 10)])
    oracle = monolithic(federation.corpus)
    try:
        expected = execute_on(oracle)
        measurement = Measurement(
            metrics=metrics, samples=samples, attempted=answers.attempted,
            failed=answers.failed(lambda op: digest(expected(op))),
            info={"distinct_operations": len(answers.seen)})
        if phases:
            measurement.absorb(_documents(federation.engine, oracle,
                                          ctx.scale.phase_seconds / 4))
    finally:
        oracle.close()
    if phases:
        measurement.absorb(harvest.delta_phase(
            ctx, federation.engine.catalog.warehouse("s0"),
            federation.texts["hlx_enzyme"]))
    return measurement


def traced(ctx: Context, federation: Federation, untraced: Measurement
           ) -> dict[str, float]:
    """A fixed number of operations with every shard behind its own
    ``TimedBackend`` and one scatter worker: what the shards were busy
    with, what planning cost, and — by subtraction — what the
    coordinator did itself."""
    recorder = ctx.recorder
    engine = federation.engine
    ops = federation.sequence(ctx)[:ctx.scale.traced_ops // 3]
    metrics = engine.metrics
    shipped = metrics.counter_total("federation.rows_shipped")
    queries = metrics.counter_total("federation.queries")
    before = [backend.snapshot() for backend in federation.timed]
    mark = len(recorder.spans)
    shard_busy = shard_busy_max = 0.0
    subqueries = pruned = results = 0
    walls = []
    for index, op in enumerate(ops):
        if op.kind == "keyword":
            phrase, source = op.arg
            with recorder.span("op.keyword", op=index) as span:
                results += len(engine.keyword_search(phrase, source=source,
                                                     limit=KEYWORD_LIMIT))
            walls.append(recorder.duration(span))
            continue
        busy_before = [backend.busy_s for backend in federation.timed]
        with recorder.span("federation.query", op=index) as asked_span:
            result = engine.query(op.arg)
        grown = [backend.busy_s - old for backend, old
                 in zip(federation.timed, busy_before)]
        shard_busy += sum(grown)
        shard_busy_max += max(grown)
        results += len(result)
        with recorder.span("results.tag", op=index) as tag_span:
            result.to_xml()
        walls.append(recorder.duration(asked_span)
                     + recorder.duration(tag_span))
        with recorder.span("federation.plan", op=index):
            plan = engine.plan(op.arg)
        subqueries += plan.fanout
        pruned += len(plan.pruned)
    busy, _, count = recorder.totals(mark)
    relational = relational_metrics(federation.timed, before)
    asked = count["federation.query"]

    oracle = monolithic(federation.corpus)
    try:
        joins = [op.arg for op in ops if op.kind == "join"][:10]
        mono = []
        for text in joins:
            with recorder.span("monolithic.join") as span:
                oracle.query(text).to_xml()
            mono.append(recorder.duration(span))
    finally:
        oracle.close()

    measured = busy["federation.plan"] + shard_busy + busy["results.tag"]
    return {
        "traced_headline": throughput(
            [(op.kind, wall, ended) for op, wall, ended
             in zip(ops, walls, accumulate(walls))]),
        # the coordinator's own share is only known by subtraction, so
        # it is what this workload leaves unattributed
        "trace.attributed_share": measured / sum(walls),
        "federation.plan_s": busy["federation.plan"],
        "federation.query_s": busy["federation.query"],
        "federation.shard_busy_s": shard_busy,
        "federation.shard_busy_max_s": shard_busy_max,
        "federation.coordinator_self_s":
            busy["federation.query"] - busy["federation.plan"] - shard_busy,
        "federation.rows_shipped_per_query":
            (metrics.counter_total("federation.rows_shipped") - shipped)
            / max(1, metrics.counter_total("federation.queries") - queries),
        "federation.subqueries_per_query": subqueries / max(1, asked),
        "federation.pruned_shard_ratio":
            pruned / max(1, pruned + subqueries),
        "federation.tax_ratio":
            untraced.metrics["join_p50_ms"] / (median(mono) * 1e3),
        "results.tag_s": busy["results.tag"],
        **relational,
        "relational.statements_per_op":
            relational["relational.statements"] / len(ops),
        "relational.rows_per_result":
            relational["relational.rows_read"] / max(1, results),
    }
