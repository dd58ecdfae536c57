"""query_library: a FLWR text becomes a table or tagged XML, in process.

One caller in a closed loop over one in-memory warehouse: 40 % keyword
search, 30 % Figure 9-shape sub-tree queries, 20 % Figure 11-shape
joins, 10 % whole-document fetches. Query texts are Zipf(1.0)-popular
over four times as many distinct texts as the compiled-query cache
holds, so it both hits and misses. No transport, no federation.
"""

from __future__ import annotations

import json
from itertools import accumulate
from time import perf_counter

import harvest
import inputs
from harness import (Answers, Context, Measurement, closed_loop, digest,
                     mix_metrics, throughput)
from trace import TimedBackend, relational_metrics

from repro.datahounds.registry import SourceRegistry
from repro.engine import Warehouse
from repro.flatfile import parse_entries
from repro.relational.sqlite_backend import SqliteBackend
from repro.translator.compile import compile_query
from repro.xmlkit import serialize

#: operations pre-drawn per run; the loop wraps around if it gets
#: through them all
SEQUENCE_LENGTH = 20_000


def page_bytes(backend) -> int:
    """Bytes a sqlite database occupies, file-backed or in memory."""
    return (backend.execute("PRAGMA page_count")[0][0]
            * backend.execute("PRAGMA page_size")[0][0])


class Library:
    """A loaded in-memory warehouse."""

    def __init__(self, ctx: Context, timed: bool = False):
        self.corpus = inputs.corpus(ctx.scale.query_corpus)
        self.texts = self.corpus.texts()
        self.raw = SqliteBackend()
        self.timed = TimedBackend(self.raw, ctx.recorder) if timed else None
        self.warehouse = Warehouse(backend=self.timed or self.raw)
        start = perf_counter()
        self.warehouse.load_corpus(self.corpus)
        self.build_s = perf_counter() - start
        self.db_bytes = page_bytes(self.raw)

    def sequence(self, ctx: Context) -> list[inputs.Op]:
        """The run's operations (not part of set-up: the program never
        sees how they were chosen)."""
        doc_ids = [row[0] for row in self.raw.execute(
            "SELECT doc_id FROM documents ORDER BY doc_id")]
        return inputs.draw_sequence(
            ctx.rng("library-ops"),
            inputs.library_mix(doc_ids, ctx.scale.query_texts),
            SEQUENCE_LENGTH)

    def close(self) -> None:
        self.warehouse.close()


def canned_mix(backend) -> dict[str, inputs.Pool]:
    """The canned requests, over two of the warehouse's own EMBL
    documents."""
    return inputs.canned_mix([row[0] for row in backend.execute(
        "SELECT doc_id FROM documents WHERE source = ? ORDER BY doc_id",
        ("hlx_embl",))])


def canned_sequence(ctx: Context, backend) -> list[inputs.Op]:
    """The canned mix in the order the seed draws."""
    return inputs.draw_sequence(ctx.rng("canned-ops"), canned_mix(backend),
                                5_000)


def execute_on(warehouse):
    """``execute(op)`` for a closed loop over one warehouse: the
    answer is consumed inside the timed call."""
    def execute(op: inputs.Op) -> str:
        if op.kind == "keyword":
            phrase, source = op.arg
            return json.dumps(warehouse.keyword_search(phrase,
                                                       source=source))
        if op.kind == "document":
            return serialize(warehouse.fetch_document(op.arg))
        return warehouse.query(op.arg).to_xml()
    return execute


def oracle_for(texts: dict[str, str], raw_backend):
    """``oracle(op)`` → expected answer digest, from a second facade
    over the same tables that compiles every query afresh
    (``query_cache=0``); documents are checked against the
    transformer's XML of the flat-file ``texts``, not against the
    warehouse."""
    fresh = Warehouse(backend=raw_backend, create=False, query_cache=0,
                      metrics=False)
    execute = execute_on(fresh)
    registry = SourceRegistry()
    entries: dict[str, dict] = {}

    def transformed(doc_id: int) -> str:
        source, key = raw_backend.execute(
            "SELECT source, entry_key FROM documents WHERE doc_id = ?",
            (doc_id,))[0]
        transformer = registry.create(source)
        if source not in entries:
            entries[source] = {
                transformer.entry_key(entry): entry
                for entry in parse_entries(texts[source])}
        return serialize(transformer.transform_entry(entries[source][key]))

    def oracle(op: inputs.Op) -> str:
        if op.kind == "document":
            return digest(transformed(op.arg))
        return digest(execute(op))
    return oracle


def query_phase(warehouse, raw_backend, texts: dict[str, str],
                sequence: list[inputs.Op], seconds: float) -> Measurement:
    """One caller in a closed loop over ``warehouse`` for ``seconds``
    (after a tenth of that unrecorded), then every distinct answer
    against the oracle."""
    answers = Answers()
    cache = warehouse.xomatiq.cache
    before: dict = {}
    done = closed_loop(
        sequence, execute_on(warehouse), answers, seconds=seconds,
        warmup=seconds / 10, warmed=lambda: before.update(cache.stats()))
    after = cache.stats()
    metrics, samples = mix_metrics([done])
    lookups = (after["hits"] - before["hits"]
               + after["misses"] - before["misses"])
    return Measurement(
        metrics=metrics, samples=samples, attempted=answers.attempted,
        failed=answers.failed(oracle_for(texts, raw_backend)),
        info={"distinct_operations": len(answers.seen),
              "cache_hit_ratio":
                  (after["hits"] - before["hits"]) / max(1, lookups),
              "cache_evictions": after["evictions"] - before["evictions"]})


def setup(ctx: Context, timed: bool = False) -> Library:
    """Corpus generation and the bulk load."""
    return Library(ctx, timed)


def teardown(library: Library) -> None:
    library.close()


def measure(ctx: Context, library: Library, seconds: float,
            phases: bool = True) -> Measurement:
    """The query mix for ``seconds``; then, so that the write side of
    the same warehouse is priced too, a short harvest phase."""
    measurement = query_phase(library.warehouse, library.raw, library.texts,
                              library.sequence(ctx), seconds)
    if phases:
        measurement.absorb(harvest.delta_phase(
            ctx, library.warehouse, library.texts["hlx_enzyme"]))
    return measurement


def traced(ctx: Context, library: Library, untraced: Measurement
           ) -> dict[str, float]:
    """A fixed number of operations twice over, behind a
    ``TimedBackend``: first as the caller issues them (one span per
    operation, statements nested inside), then stage by stage through
    each layer's public function."""
    recorder = ctx.recorder
    warehouse = library.warehouse
    engine = warehouse.xomatiq
    ops = library.sequence(ctx)[:ctx.scale.traced_ops]
    execute = execute_on(warehouse)

    before = library.timed.snapshot()
    walls, missed = [], []
    for index, op in enumerate(ops):
        misses = engine.cache.stats()["misses"]
        with recorder.span(f"op.{op.kind}", op=index) as span:
            execute(op)
        walls.append(recorder.duration(span))
        missed.append(engine.cache.stats()["misses"] > misses)
    relational = relational_metrics([library.timed], [before])

    mark = len(recorder.spans)
    results = 0
    for index, op in enumerate(ops):
        if op.kind == "keyword":
            phrase, source = op.arg
            with recorder.span("engine.keyword", op=index):
                results += len(warehouse.keyword_search(phrase,
                                                        source=source))
        elif op.kind == "document":
            with recorder.span("shredding.reconstruct", op=index):
                document = warehouse.fetch_document(op.arg)
            with recorder.span("xmlkit.serialize", op=index):
                serialize(document)
            results += 1
        else:
            with recorder.span("xquery.parse", op=index):
                ast = engine.parse(op.arg)
            with recorder.span("xquery.check", op=index):
                engine.check(ast)
            with recorder.span("translator.compile", op=index):
                compiled = compile_query(
                    ast, sequence_tags=warehouse.sequence_tags)
            with recorder.span("translator.execute", op=index):
                result = engine.execute(compiled)
            with recorder.span("results.tag", op=index):
                result.to_xml()
            with recorder.span("results.table", op=index):
                result.to_table()
            results += len(result)
    busy, own, _ = recorder.totals(mark)

    # what each operation cost its caller, rebuilt from its stages (the
    # spans carry the operation's index): a cache hit skips parse,
    # check and compile; nobody asked for the plain-text table
    skipped_on_hit = ("xquery.parse", "xquery.check", "translator.compile")
    by_hand = sum(
        end - start for name, start, end, parent, op in recorder.spans[mark:]
        if parent < 0 and name != "results.table"
        and (missed[op] or name not in skipped_on_hit))
    return {
        "traced_headline": throughput(
            [(op.kind, wall, ended) for op, wall, ended
             in zip(ops, walls, accumulate(walls))]),
        "trace.attributed_share": by_hand / sum(walls),
        "xquery.parse_s": busy["xquery.parse"],
        "xquery.check_s": busy["xquery.check"],
        "translator.compile_s": busy["translator.compile"],
        "translator.execute_s": busy["translator.execute"],
        "translator.execute_self_s": own["translator.execute"],
        "translator.cache_hit_ratio": untraced.info["cache_hit_ratio"],
        "translator.cache_evictions": untraced.info["cache_evictions"],
        "results.tag_s": busy["results.tag"],
        "results.table_s": busy["results.table"],
        "engine.keyword_s": busy["engine.keyword"],
        "shredding.reconstruct_s": busy["shredding.reconstruct"],
        "xmlkit.serialize_s": busy["xmlkit.serialize"],
        **relational,
        "relational.statements_per_op":
            relational["relational.statements"] / len(ops),
        "relational.rows_per_result":
            relational["relational.rows_read"] / max(1, results),
    }
