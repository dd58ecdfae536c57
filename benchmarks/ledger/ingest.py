"""ingest_release: a flat-file release becomes a queryable warehouse.

Repeated ``Warehouse(backend=SqliteBackend(<fresh file>))
.load_corpus(corpus)`` of one ENZYME + EMBL + Swiss-Prot release. The
write path does all the work — flatfile, datahounds transform, xmlkit
validation, shredding, relational — and the query, service and
federation layers none.
"""

from __future__ import annotations

import gc
import os
from time import perf_counter

import harvest
import inputs
import library
from harness import Context, Measurement, median, remove_database
from trace import TimedBackend, relational_metrics

from repro.datahounds.registry import SourceRegistry
from repro.engine import Warehouse
from repro.flatfile import parse_entries
from repro.relational.sqlite_backend import SqliteBackend
from repro.shredding.shredder import shred_document
from repro.xmlkit import serialize


#: loads a run makes at the least, however short its window
MIN_LOADS = 3


def setup(ctx: Context, timed: bool = False):
    """Set-up is generating the release; loading it is the workload."""
    return inputs.corpus(ctx.scale.ingest_corpus)


def teardown(corpus) -> None:
    """Nothing outlives a repetition."""


def _input_bytes(corpus) -> int:
    return sum(len(text.encode("utf-8")) for text in corpus.texts().values())


def _samples(ctx: Context, corpus) -> list[tuple[str, str, str]]:
    """(source, entry key, the transformer's XML) of a few entries the
    loaded warehouse must give back unchanged."""
    rng = ctx.rng("ingest-samples")
    registry = SourceRegistry()
    picked = []
    for _ in range(ctx.scale.ingest_samples):
        source = rng.choice(sorted(corpus.texts()))
        transformer = registry.create(source)
        entry = rng.choice(parse_entries(corpus.texts()[source]))
        picked.append((source, transformer.entry_key(entry),
                       serialize(transformer.transform_entry(entry))))
    return picked


class Loaded:
    """One repetition: the release loaded into a fresh sqlite file."""

    def __init__(self, ctx: Context, corpus, label: str,
                 timed: bool = False):
        self.path = ctx.workdir / f"ingest_{label}.sqlite"
        remove_database(self.path)
        gc.collect()    # the previous repetition's garbage, untimed
        self.raw = SqliteBackend(self.path)
        self.timed = TimedBackend(self.raw, ctx.recorder) if timed else None
        self.warehouse = Warehouse(backend=self.timed or self.raw)
        start = perf_counter()
        self.warehouse.load_corpus(corpus)
        self.seconds = perf_counter() - start

    def close(self) -> int:
        """Close, and return the bytes the file came to."""
        self.warehouse.close()
        size = os.path.getsize(self.path)
        remove_database(self.path)
        return size


def measure(ctx: Context, corpus, seconds: float,
            phases: bool = True) -> Measurement:
    """Load the release into fresh files until ``seconds`` have
    passed; every repetition must count the same rows and reconstruct
    the sampled documents. The last warehouse is then queried and kept
    fresh for a short phase each, which prices the read side and the
    upsert side of what the load built."""
    documents = sum(corpus.sizes().values())
    samples = _samples(ctx, corpus)

    def mismatches(warehouse) -> int:
        wrong = 0
        for source, key, expected in samples:
            rows = warehouse.backend.execute(
                "SELECT doc_id FROM documents WHERE source = ? "
                "AND entry_key = ?", (source, key))
            if len(rows) != 1 or serialize(
                    warehouse.fetch_document(rows[0][0])) != expected:
                wrong += 1
        return wrong

    walls, sizes, all_stats = [], [], []
    failed = 0
    loaded = None
    begin = perf_counter()
    try:
        while len(walls) < MIN_LOADS \
                or perf_counter() - begin < seconds:
            if loaded is not None:
                sizes.append(loaded.close())
            loaded = Loaded(ctx, corpus, str(len(walls)))
            walls.append(loaded.seconds)
            all_stats.append(loaded.warehouse.stats())
            failed += mismatches(loaded.warehouse)
        failed += documents * sum(1 for stats in all_stats
                                  if stats != all_stats[0]
                                  or stats["documents"] != documents)
        measurement = Measurement(
            metrics={"ingest_docs_per_s": documents / median(walls),
                     "db_bytes_per_input_byte":
                         median(sizes) / _input_bytes(corpus)},
            samples={"ingest_docs_per_s": len(walls)},
            attempted=(documents + len(samples)) * len(walls),
            failed=failed,
            info={"documents": documents,
                  "input_bytes": _input_bytes(corpus),
                  "db_bytes": sizes[-1], "rows": all_stats[0]})
        if phases:
            measurement.absorb(library.query_phase(
                loaded.warehouse, loaded.raw, corpus.texts(),
                library.canned_sequence(ctx, loaded.raw),
                ctx.scale.phase_seconds))
            measurement.absorb(harvest.delta_phase(
                ctx, loaded.warehouse, corpus.enzyme_text))
    finally:
        if loaded is not None:
            loaded.close()
    return measurement


def traced(ctx: Context, corpus, untraced: Measurement) -> dict[str, float]:
    """The same load behind a ``TimedBackend``, then the write path
    once more by hand: each layer's public function called from here
    inside a span, so its time is known without touching the program.
    """
    recorder = ctx.recorder
    documents = sum(corpus.sizes().values())
    with recorder.span("op.load"):
        loaded = Loaded(ctx, corpus, "traced", timed=True)
    loaded.close()
    wall = loaded.seconds
    relational = relational_metrics([loaded.timed])

    registry = SourceRegistry()
    mark = len(recorder.spans)
    staged = []
    entries_parsed = rows = 0
    for source, text in corpus.texts().items():
        with recorder.span("flatfile.parse"):
            entries = parse_entries(text)
        entries_parsed += len(entries)
        transformer = registry.create(source, validate=False)
        for entry in entries:
            with recorder.span("datahounds.transform"):
                item = (source, transformer.collection_of(entry),
                        transformer.entry_key(entry),
                        transformer.transform_entry(entry))
            with recorder.span("xmlkit.validate"):
                transformer.dtd.validate(item[3])
            with recorder.span("shredding.shred"):
                rows += shred_document(item[3], 0, *item[:3]).total_rows
            staged.append(item)
    path = ctx.workdir / "ingest_session.sqlite"
    remove_database(path)
    warehouse = Warehouse(
        backend=TimedBackend(SqliteBackend(path), recorder))
    try:
        # one bulk session per source, as load_corpus opens them
        for source in corpus.texts():
            with recorder.span("shredding.session"):
                with warehouse.loader.bulk_session() as session:
                    for item in staged:
                        if item[0] == source:
                            session.add(*item)
            warehouse.optimize()
    finally:
        warehouse.close()
        remove_database(path)
    busy, own, _ = recorder.totals(mark)
    by_hand = (busy["flatfile.parse"] + busy["datahounds.transform"]
               + busy["xmlkit.validate"] + busy["shredding.session"]
               + busy["relational.analyze"])
    return {
        "traced_headline": documents / wall,
        "trace.attributed_share": by_hand / wall,
        "flatfile.parse_s": busy["flatfile.parse"],
        "flatfile.entries": entries_parsed,
        "datahounds.transform_s": busy["datahounds.transform"],
        "datahounds.docs": len(staged),
        "xmlkit.validate_s": busy["xmlkit.validate"],
        "shredding.shred_s": busy["shredding.shred"],
        "shredding.rows": rows,
        "shredding.session_s": busy["shredding.session"],
        "shredding.session_self_s": own["shredding.session"],
        **relational,
    }
