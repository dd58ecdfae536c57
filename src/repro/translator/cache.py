"""LRU cache of compiled queries.

Repeated FLWR queries over a warehouse of slowly-changing releases are
the common case (YeastMed's mediator answers the same biological
queries over and over), yet the seed pipeline re-ran
parse → check → compile for every call. :class:`CompiledQueryCache`
memoizes the whole translation, keyed by everything the translation
depends on:

* the query text,
* the backend dialect (``backend.name`` — minidb and SQLite receive
  the same SQL today, but the key keeps a future dialect split from
  silently cross-serving plans),
* the warehouse's ``sequence_tags`` (they change which tables a path
  compiles against).

Staleness is handled by a *catalog generation* counter: every
store/remove/bulk-flush on the warehouse bumps it, and an entry cached
at an older generation is treated as a miss and dropped. That makes
the semantic check (``document_exists``) safe to skip on a hit — any
mutation that could change its verdict also changed the generation —
and guarantees a query that failed against the old catalog (unknown
document) recompiles after the document is loaded.

A cached :class:`~repro.translator.compile.CompiledQuery` is never
mutated by execution (the executor builds restricted SQL into local
strings), so hits and misses produce identical results.

The cache is shared by every thread that queries the warehouse (the
query service hands one warehouse to a whole handler pool), so all
``OrderedDict`` access runs under one lock — ``move_to_end`` and
eviction are multi-step structure mutations that are not atomic under
the GIL, and two unlocked threads can otherwise corrupt the LRU links
or die with ``RuntimeError: OrderedDict mutated during iteration``.
The translation itself is *not* under the lock: concurrent misses may
both compile and the second ``put`` wins, which is merely duplicated
work, never a wrong answer.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.obs.metrics import NULL_METRICS
from repro.translator.compile import CompiledQuery

#: cache key: (query text, backend dialect, sequence_tags)
CacheKey = tuple[str, str, frozenset]


class CompiledQueryCache:
    """A bounded LRU of ``(generation, CompiledQuery)`` entries.

    With a live :class:`repro.obs.MetricsRegistry`, every hit /
    miss / eviction / invalidation also bumps the always-on
    ``query_cache.*`` counters and the cache size gauge, so cache
    behaviour shows up in ``xomatiq metrics`` without a profiler run.
    """

    def __init__(self, maxsize: int = 128, metrics=NULL_METRICS):
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = maxsize
        self._entries: "OrderedDict[CacheKey, tuple[int, CompiledQuery]]"
        self._entries = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: entries dropped because the catalog generation moved on
        self.invalidations = 0
        self._hit_counter = metrics.counter("query_cache.hits")
        self._miss_counter = metrics.counter("query_cache.misses")
        self._eviction_counter = metrics.counter("query_cache.evictions")
        self._invalidation_counter = metrics.counter(
            "query_cache.invalidations")
        self._size_gauge = metrics.gauge("query_cache.size")

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, text: str, dialect: str, sequence_tags: frozenset,
            generation: int) -> CompiledQuery | None:
        """The cached translation, or None on miss/stale."""
        key = (text, dialect, sequence_tags)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                size = None
                outcome = "miss"
            else:
                cached_generation, compiled = entry
                if cached_generation != generation:
                    del self._entries[key]
                    self.invalidations += 1
                    self.misses += 1
                    size = len(self._entries)
                    outcome = "stale"
                else:
                    self._entries.move_to_end(key)
                    self.hits += 1
                    size = None
                    outcome = "hit"
        # metric handles have their own locks; update them outside ours
        if outcome == "hit":
            self._hit_counter.inc()
            return compiled
        self._miss_counter.inc()
        if outcome == "stale":
            self._invalidation_counter.inc()
            self._size_gauge.set(size)
        return None

    def put(self, text: str, dialect: str, sequence_tags: frozenset,
            generation: int, compiled: CompiledQuery) -> None:
        """Cache one translation at the current catalog generation."""
        key = (text, dialect, sequence_tags)
        evicted = 0
        with self._lock:
            self._entries[key] = (generation, compiled)
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self.evictions += 1
                evicted += 1
            size = len(self._entries)
        if evicted:
            self._eviction_counter.inc(evicted)
        self._size_gauge.set(size)

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        with self._lock:
            self._entries.clear()

    def stats(self) -> dict[str, int]:
        """Counters for benchmarks and the profile JSON."""
        with self._lock:
            return {
                "size": len(self._entries),
                "maxsize": self.maxsize,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
            }
