"""E2 — keyword query (the paper's Figure 8) across engines.

The claim under test: keyword searches pushed into the relational
engine via the inverted keyword index are efficient, versus (a) the
native-XML tree-walking evaluator, which tokenizes documents on the
fly, and (b) the SRS-style flat-file index, which is fast but only
sees its pre-indexed fields.

Expected shape: sqlite ≈ minidb ≪ native; flatscan fast but answering
a weaker question (no join, indexed fields only).
"""

import pytest

FIG8 = '''FOR $a IN document("hlx_embl.inv")/hlx_n_sequence,
     $b IN document("hlx_sprot.all")/hlx_n_sequence
WHERE contains ($a, "cdc6", any)
AND   contains ($b, "cdc6", any)
RETURN
     $b//sprot_accession_number,
     $a//embl_accession_number'''

SINGLE_DB = '''FOR $a IN document("hlx_embl.inv")/hlx_n_sequence
WHERE contains($a, "cdc6", any)
RETURN $a//embl_accession_number'''


@pytest.mark.parametrize("engine", ["sqlite", "minidb", "native"])
def test_e2_figure8_two_database_keyword(benchmark, engines, engine,
                                         sqlite_warehouse,
                                         minidb_warehouse,
                                         stage_breakdown):
    result = benchmark(engines[engine], FIG8)
    assert len(result) > 0
    benchmark.extra_info["rows"] = len(result)
    if engine in ("sqlite", "minidb"):
        warehouse = (sqlite_warehouse if engine == "sqlite"
                     else minidb_warehouse)
        benchmark.extra_info["stages"] = stage_breakdown(warehouse, FIG8)


@pytest.mark.parametrize("engine", ["sqlite", "minidb", "native"])
def test_e2_single_database_keyword(benchmark, engines, engine):
    result = benchmark(engines[engine], SINGLE_DB)
    assert len(result) > 0
    benchmark.extra_info["rows"] = len(result)


def test_e2_flatscan_baseline(benchmark, embl_flat_index):
    """The SRS-class lookup — fast, but only over ID/DE/KW lines and
    with no join capability (expressiveness gap, paper §4)."""
    hits = benchmark(embl_flat_index.search, "cdc6")
    benchmark.extra_info["rows"] = len(hits)


@pytest.mark.parametrize("engine", ["sqlite", "minidb"])
def test_e2_repeated_query_cached(benchmark, engine, sqlite_warehouse,
                                  minidb_warehouse):
    """The dashboard/GUI pattern: the same query re-issued against an
    unchanged warehouse. After the first call the compiled-query cache
    serves the translation, so repeats pay execution cost only —
    compare against the cold figures above to see the compile share
    amortized away."""
    warehouse = (sqlite_warehouse if engine == "sqlite"
                 else minidb_warehouse)
    warehouse.query(FIG8)  # prime the cache
    hits_before = warehouse.xomatiq.cache.hits
    result = benchmark(warehouse.query, FIG8)
    assert warehouse.xomatiq.cache.hits > hits_before
    benchmark.extra_info["rows"] = len(result)
    benchmark.extra_info["cache"] = warehouse.xomatiq.cache.stats()


def test_e2_translation_cache_hit_cost(benchmark, sqlite_warehouse):
    """The hit path in isolation: two dict operations and a generation
    compare — the compile stage amortized to ~0."""
    warehouse = sqlite_warehouse
    warehouse.query(FIG8)  # prime the cache

    def hit():
        compiled = warehouse.xomatiq.cache.get(
            FIG8, warehouse.backend.name, warehouse.sequence_tags,
            warehouse.loader.generation)
        assert compiled is not None
        return compiled

    benchmark(hit)
    benchmark.extra_info["cache"] = warehouse.xomatiq.cache.stats()


def test_e2_translation_cold_cost(benchmark, sqlite_warehouse):
    """The miss path for the same query: full parse + check + compile
    (the denominator of the cache's amortization claim)."""
    warehouse = sqlite_warehouse
    benchmark(warehouse.xomatiq.translate, FIG8)


def test_e2_proximity_keyword(benchmark, sqlite_warehouse):
    """The positional extension: both tokens within a 12-token window."""
    query = ('FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme '
             'WHERE contains($a, "alcohol ketone", 12) '
             'RETURN $a//enzyme_id')
    result = benchmark(sqlite_warehouse.query, query)
    benchmark.extra_info["rows"] = len(result)
