"""Thread-safety regression tests for :class:`CompiledQueryCache`.

Before the cache took a lock, concurrent ``get``/``put`` mutated the
``OrderedDict`` mid-operation — ``move_to_end`` racing an eviction
``popitem`` corrupts the LRU links, two stale-entry deletions race
into ``KeyError``, and iteration during mutation raises
``RuntimeError: OrderedDict mutated during iteration``. These tests
hammer those interleavings from many threads; on the unlocked code
they blow up (on a good day) or silently corrupt the LRU (on a bad
one), with the invariant checks catching the latter.
"""

import threading
import time

import pytest

from repro.engine import Warehouse
from repro.obs import MetricsRegistry
from repro.synth import build_corpus
from repro.translator.cache import CompiledQueryCache

THREADS = 8
OPS_PER_THREAD = 2_000


class TestCacheUnderThreads:
    def test_hammer_get_put_evictions(self):
        """Overlapping keys + a tiny LRU: every op contends on the
        same OrderedDict and evictions run constantly."""
        cache = CompiledQueryCache(maxsize=4)
        tags = frozenset({"sequence"})
        errors = []
        barrier = threading.Barrier(THREADS)

        def worker(seed: int):
            try:
                barrier.wait()
                for index in range(OPS_PER_THREAD):
                    key = f"q{(seed + index) % 12}"
                    if cache.get(key, "sqlite", tags, 0) is None:
                        cache.put(key, "sqlite", tags, 0, object())
            except Exception as exc:   # noqa: BLE001 - the regression
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(seed,))
                   for seed in range(THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        stats = cache.stats()
        assert stats["size"] <= 4
        assert stats["hits"] + stats["misses"] \
            == THREADS * OPS_PER_THREAD

    def test_hammer_stale_invalidation(self):
        """Generation bumps force the stale-entry ``del`` path, the
        one where two racing readers double-delete."""
        cache = CompiledQueryCache(maxsize=8)
        tags = frozenset()
        errors = []
        barrier = threading.Barrier(THREADS)

        def worker(seed: int):
            try:
                barrier.wait()
                for index in range(OPS_PER_THREAD):
                    generation = (seed + index) % 3
                    key = f"q{index % 4}"
                    if cache.get(key, "sqlite", tags,
                                 generation) is None:
                        cache.put(key, "sqlite", tags, generation,
                                  object())
            except Exception as exc:   # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(seed,))
                   for seed in range(THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert cache.stats()["size"] <= 8


class TestWarehouseCacheUnderThreads:
    @pytest.fixture(scope="class")
    def corpus(self):
        return build_corpus(seed=7, enzyme_count=10, embl_count=10,
                            sprot_count=10)

    def test_queries_race_generation_bumps(self, corpus):
        """One shared warehouse: reader threads serve cache hits while
        a writer keeps bumping the catalog generation (what a harvest
        does mid-traffic) — every read must stay correct and no
        OrderedDict corruption may surface."""
        warehouse = Warehouse(metrics=MetricsRegistry(),
                              query_cache=4)
        warehouse.load_corpus(corpus)
        queries = [
            'FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme '
            'WHERE contains($a//catalytic_activity, "ketone") '
            'RETURN $a//enzyme_id',
            'FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme '
            'RETURN $a//enzyme_id',
            'FOR $a IN document("hlx_sprot.all")/hlx_n_sequence '
            'RETURN $a//sprot_accession_number',
            'FOR $a IN document("hlx_embl.inv")/hlx_n_sequence '
            'RETURN $a//embl_accession_number',
            'FOR $a IN document("hlx_embl.inv")/hlx_n_sequence '
            'RETURN $a//description',
        ]
        expected = [warehouse.query(text).to_xml() for text in queries]
        errors = []
        stop = threading.Event()

        def reader(offset: int):
            try:
                for index in range(120):
                    pick = (offset + index) % len(queries)
                    xml = warehouse.query(queries[pick]).to_xml()
                    assert xml == expected[pick]
            except Exception as exc:   # noqa: BLE001
                errors.append(exc)

        cache = warehouse.xomatiq.cache

        def bumper():
            try:
                seen = cache.stats()["hits"]
                while not stop.is_set():
                    # bump only once a read has hit since the last
                    # bump: however the threads are scheduled, the
                    # bumps cannot starve the readers of hits, and
                    # they still land between their gets and puts
                    hits = cache.stats()["hits"]
                    if hits > seen:
                        seen = hits
                        warehouse.loader.bump_generation()
                    # yield the GIL: a busy-spinning bumper convoys
                    # the readers without adding to the race
                    time.sleep(0)
            except Exception as exc:   # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=reader, args=(offset,))
                   for offset in range(6)]
        bump_thread = threading.Thread(target=bumper)
        bump_thread.start()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stop.set()
        bump_thread.join()
        assert errors == []
        stats = cache.stats()
        assert stats["size"] <= 4
        # the race happened: bumps invalidated entries mid-traffic
        # while other reads still hit
        assert stats["invalidations"] > 0
        assert stats["hits"] > 0
