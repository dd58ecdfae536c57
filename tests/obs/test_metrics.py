"""The always-on metrics plane: counters/gauges/histograms, the fused
statement timer, snapshots, Prometheus exposition, thread safety, and
the end-to-end wiring through a live warehouse."""

import threading

import pytest

from repro.engine import Warehouse
from repro.obs import (
    MetricsRegistry,
    NullMetrics,
    default_registry,
    resolve_metrics,
)
from repro.obs.metrics import DEFAULT_BUCKETS, SIZE_BUCKETS
from repro.xmlkit import parse_document

QUERY = ('FOR $a IN document("db.c")/r/item '
         'WHERE $a/name = "alpha" RETURN $a//name')


def small_warehouse(backend, **kwargs):
    warehouse = Warehouse(backend=backend, **kwargs)
    warehouse.loader.store_document(
        "db", "c", "k1",
        parse_document("<r><item><name>alpha</name></item>"
                       "<item><name>beta</name></item></r>"))
    return warehouse


class TestPrimitives:
    def test_counter_inc(self):
        registry = MetricsRegistry()
        counter = registry.counter("requests", source="embl")
        counter.inc()
        counter.inc(5)
        assert registry.get_counter("requests", source="embl") == 6
        # different label set = different counter
        assert registry.get_counter("requests", source="sprot") == 0

    def test_gauge_set_and_read(self):
        registry = MetricsRegistry()
        registry.set_gauge("queue.depth", 17)
        assert registry.get_gauge_value("queue.depth") == 17
        registry.set_gauge("queue.depth", 3)
        assert registry.get_gauge_value("queue.depth") == 3

    def test_gauge_read_does_not_create(self):
        registry = MetricsRegistry()
        assert registry.get_gauge_value("never.set") is None
        assert registry.snapshot()["gauges"] == []

    def test_handles_are_get_or_create(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert (registry.counter("a", x="1")
                is not registry.counter("a", x="2"))
        # label order must not matter
        assert (registry.counter("b", x="1", y="2")
                is registry.counter("b", y="2", x="1"))

    def test_counter_total_sums_label_sets(self):
        registry = MetricsRegistry()
        registry.inc("loads", 2, source="embl")
        registry.inc("loads", 3, source="sprot")
        assert registry.counter_total("loads") == 5

    def test_histogram_percentiles(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("latency")
        for __ in range(99):
            histogram.observe(0.002)
        histogram.observe(40.0)
        p = histogram.percentiles()
        assert 0.001 <= p["p50"] <= 0.0025
        assert 0.001 <= p["p95"] <= 0.0025
        assert p["p99"] >= 0.0025
        assert histogram.count == 100

    def test_histogram_overflow_bucket(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("latency")
        histogram.observe(10_000.0)     # beyond the last bound
        assert histogram.bucket_counts[-1] == 1
        # the histogram cannot see beyond its last edge
        assert histogram.quantile(0.99) == DEFAULT_BUCKETS[-1]

    def test_histogram_empty_quantile_is_zero(self):
        assert MetricsRegistry().histogram("h").quantile(0.5) == 0.0

    def test_histogram_custom_buckets(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("sizes", buckets=SIZE_BUCKETS)
        histogram.observe(100)
        assert histogram.bounds == SIZE_BUCKETS

    def test_bad_buckets_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("h", buckets=(2, 1))


class TestStatementTimer:
    def test_fused_update_feeds_all_three_metrics(self):
        registry = MetricsRegistry()
        timer = registry.statement_timer("SELECT")
        timer.record(12, 0.004)
        timer.record(0, 0.5, executions=10)
        assert registry.get_counter("backend.statements",
                                    kind="SELECT") == 11
        assert registry.get_counter("backend.rows", kind="SELECT") == 12
        seconds = registry.histogram("backend.statement_seconds",
                                     kind="SELECT")
        assert seconds.count == 2
        assert seconds.sum == pytest.approx(0.504)

    def test_timer_is_get_or_create(self):
        registry = MetricsRegistry()
        assert (registry.statement_timer("INSERT")
                is registry.statement_timer("INSERT"))


class TestThreadSafety:
    def test_concurrent_increments_lose_nothing(self):
        registry = MetricsRegistry()
        timer = registry.statement_timer("SELECT")

        def work():
            counter = registry.counter("hits")
            for __ in range(2_000):
                counter.inc()
                registry.observe("lat", 0.001)
                timer.record(1, 0.001)

        threads = [threading.Thread(target=work) for __ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert registry.get_counter("hits") == 16_000
        assert registry.histogram("lat").count == 16_000
        assert registry.get_counter("backend.statements",
                                    kind="SELECT") == 16_000
        assert registry.get_counter("backend.rows", kind="SELECT") == 16_000


class TestSnapshot:
    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.inc("loads", 3, source="embl")
        registry.set_gauge("size", 9)
        registry.observe("lat", 0.01)
        snapshot = registry.snapshot()
        (counter,) = snapshot["counters"]
        assert counter == {"name": "loads", "labels": {"source": "embl"},
                           "value": 3}
        (gauge,) = snapshot["gauges"]
        assert gauge["value"] == 9
        (histogram,) = snapshot["histograms"]
        assert histogram["count"] == 1
        assert set(histogram) >= {"name", "labels", "count", "sum",
                                  "p50", "p95", "p99", "buckets"}
        assert "+Inf" in histogram["buckets"]

    def test_reset_drops_everything(self):
        registry = MetricsRegistry()
        registry.inc("x")
        registry.statement_timer("SELECT")
        registry.reset()
        snapshot = registry.snapshot()
        assert snapshot == {"counters": [], "gauges": [], "histograms": []}


def parse_prometheus(text):
    """Minimal exposition-format validator: returns {name: type} and
    {sample_name: [(labels, value)]}; raises on malformed lines."""
    import re
    types = {}
    samples = {}
    sample_re = re.compile(
        r'^([a-zA-Z_:][a-zA-Z0-9_:]*)'
        r'(\{([a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"'
        r'(,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*")*)?\})?'
        r' (-?[0-9.eE+\-]+|\+Inf|-Inf|NaN)$')
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split()
            assert parts[0] == "#" and parts[1] == "TYPE", line
            assert parts[3] in ("counter", "gauge", "histogram"), line
            types[parts[2]] = parts[3]
            continue
        match = sample_re.match(line)
        assert match, f"malformed sample line: {line!r}"
        name, labels, value = match.group(1), match.group(3), match.group(5)
        float(value)    # must parse as a number
        samples.setdefault(name, []).append((labels or "", value))
    return types, samples


class TestPrometheusRendering:
    def test_exposition_is_valid_and_complete(self):
        registry = MetricsRegistry()
        registry.inc("query.total", 4, backend="sqlite")
        registry.set_gauge("cache.size", 2)
        registry.observe("query.seconds", 0.02)
        text = registry.render_prometheus()
        types, samples = parse_prometheus(text)
        assert types["xomatiq_query_total"] == "counter"
        assert types["xomatiq_cache_size"] == "gauge"
        assert types["xomatiq_query_seconds"] == "histogram"
        assert ('backend="sqlite"', "4") in samples["xomatiq_query_total"]
        # histogram series: one _bucket per edge + +Inf, plus _sum/_count
        buckets = samples["xomatiq_query_seconds_bucket"]
        assert len(buckets) == len(DEFAULT_BUCKETS) + 1
        assert samples["xomatiq_query_seconds_count"] == [("", "1")]

    def test_histogram_buckets_are_cumulative(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat", buckets=(1.0, 2.0))
        histogram.observe(0.5)
        histogram.observe(1.5)
        histogram.observe(99.0)
        __, samples = parse_prometheus(registry.render_prometheus())
        counts = [int(v) for __, v in samples["xomatiq_lat_bucket"]]
        assert counts == sorted(counts)          # cumulative
        assert counts[-1] == 3                   # +Inf sees everything

    def test_counter_names_get_total_suffix(self):
        registry = MetricsRegistry()
        registry.inc("loads")
        text = registry.render_prometheus()
        assert "xomatiq_loads_total 1" in text

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        registry.inc("odd", path='a"b\\c')
        types, samples = parse_prometheus(registry.render_prometheus())
        assert "xomatiq_odd_total" in types

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().render_prometheus() == ""


class TestResolveMetrics:
    def test_none_and_true_resolve_to_default(self):
        assert resolve_metrics(None) is default_registry()
        assert resolve_metrics(True) is default_registry()

    def test_false_resolves_to_null(self):
        assert isinstance(resolve_metrics(False), NullMetrics)

    def test_instance_passes_through(self):
        registry = MetricsRegistry()
        assert resolve_metrics(registry) is registry

    def test_null_metrics_is_inert(self):
        null = NullMetrics()
        null.inc("x")
        null.observe("y", 1.0)
        null.set_gauge("z", 2.0)
        null.counter("c").inc()
        null.statement_timer("SELECT").record(1, 0.1)
        assert null.snapshot() == {"counters": [], "gauges": [],
                                   "histograms": []}
        assert null.render_prometheus() == ""


class TestWarehouseWiring:
    def test_query_feeds_metrics(self, backend):
        registry = MetricsRegistry()
        warehouse = small_warehouse(backend, metrics=registry)
        warehouse.query(QUERY)
        warehouse.query(QUERY)
        name = warehouse.backend.name
        assert registry.get_counter("query.total", backend=name) == 2
        assert registry.get_counter("query.cache_misses") == 1
        assert registry.get_counter("query.cache_hits") == 1
        assert registry.histogram("query.seconds").count == 2
        assert registry.get_counter("backend.statements",
                                    kind="SELECT") > 0

    def test_query_cache_metrics(self, backend):
        registry = MetricsRegistry()
        warehouse = small_warehouse(backend, metrics=registry)
        warehouse.query(QUERY)
        warehouse.query(QUERY)
        assert registry.get_counter("query_cache.hits") == 1
        assert registry.get_counter("query_cache.misses") == 1
        assert registry.get_gauge_value("query_cache.size") == 1

    def test_load_feeds_metrics(self, backend):
        registry = MetricsRegistry()
        warehouse = small_warehouse(backend, metrics=registry)
        assert registry.get_counter("load.documents", source="db") == 1
        assert registry.get_counter("load.rows", table="elements") > 0

    def test_metrics_false_records_nothing(self, backend, corpus):
        """Metrics off is behaviour: a ``metrics=False`` warehouse
        loads, queries and runs a hound round with a standing
        subscription, a ``metrics=False`` federation answers a join,
        and the process-wide registry stays empty throughout."""
        from repro.datahounds import InMemoryRepository
        from repro.federation import FederatedXomatiQ, ShardCatalog
        from repro.obs import NULL_TRACER
        from repro.subscriptions import SubscriptionManager

        warehouse = small_warehouse(backend, metrics=False)
        assert isinstance(warehouse.metrics, NullMetrics)
        assert len(warehouse.query(QUERY)) == 1
        repository = InMemoryRepository(metrics=False)
        repository.publish("hlx_enzyme", "r1", corpus.enzyme_text)
        manager = SubscriptionManager(warehouse, persist=False)
        manager.subscribe('FOR $a IN document("hlx_enzyme.DEFAULT")'
                          '/hlx_enzyme RETURN $a//enzyme_id')
        report = warehouse.harvest(repository, sources=["hlx_enzyme"])
        manager.close()
        assert report.reports["hlx_enzyme"].documents_loaded > 0

        catalog = ShardCatalog()
        catalog.add_shard("s0")
        catalog.add_shard("s1")
        catalog.assign("hlx_enzyme", "s0")
        catalog.assign("hlx_embl", "s1")
        federation = FederatedXomatiQ(catalog, metrics=False)
        federation.load_text("hlx_enzyme", corpus.enzyme_text)
        federation.load_text("hlx_embl", corpus.embl_text)
        joined = federation.query(
            'FOR $a IN document("hlx_embl.inv")/hlx_n_sequence/db_entry,'
            ' $b IN document("hlx_enzyme.DEFAULT")/hlx_enzyme/db_entry'
            ' WHERE $a//qualifier[@qualifier_type = "EC_number"]'
            ' = $b/enzyme_id RETURN $a//embl_accession_number')
        federation.close()
        assert len(joined) > 0

        assert default_registry().snapshot() == {
            "counters": [], "gauges": [], "histograms": []}
        assert warehouse.backend is backend            # never wrapped
        assert warehouse.tracer is NULL_TRACER
        assert NULL_TRACER.spans == ()

    def test_remove_source_counter(self, backend):
        registry = MetricsRegistry()
        warehouse = small_warehouse(backend, metrics=registry)
        warehouse.remove_source("db")
        assert registry.get_counter("warehouse.documents_removed",
                                    source="db") == 1

    def test_metrics_survive_close_and_reopen(self, tmp_path):
        """The registry outlives any one warehouse: close a warehouse,
        reopen the same database, and the counters keep accumulating
        (the always-on plane is process-scoped, not connection-scoped)."""
        from repro.relational import SqliteBackend
        registry = MetricsRegistry()
        path = str(tmp_path / "wh.sqlite")
        warehouse = small_warehouse(SqliteBackend(path), metrics=registry)
        warehouse.query(QUERY)
        warehouse.close()
        assert registry.get_counter("query.total", backend="sqlite") == 1

        reopened = Warehouse(backend=SqliteBackend(path), create=False,
                             metrics=registry)
        reopened.query(QUERY)
        reopened.close()
        assert registry.get_counter("query.total", backend="sqlite") == 2
        assert registry.get_counter("load.documents", source="db") == 1

    def test_traced_spans_feed_histograms(self, backend):
        registry = MetricsRegistry()
        warehouse = small_warehouse(backend, metrics=registry, trace=True)
        warehouse.query(QUERY)
        spans = registry.histogram("trace.span_seconds", span="query")
        assert spans.count == 1
