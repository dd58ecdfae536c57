"""Warehouse health reporting: structural checks, harvest freshness,
and the human rendering."""

from repro.datahounds.transport import InMemoryRepository
from repro.engine import Warehouse
from repro.obs import MetricsRegistry, format_health, health_report
from repro.xmlkit import parse_document

ENZYME_RELEASE = """\
ID   1.1.1.1
DE   alcohol dehydrogenase
//
ID   1.1.1.2
DE   aldehyde reductase
//
"""


def small_warehouse(backend, **kwargs):
    warehouse = Warehouse(backend=backend, **kwargs)
    warehouse.loader.store_document(
        "db", "c", "k1",
        parse_document("<r><item><name>alpha</name></item></r>"))
    return warehouse


class TestStructuralChecks:
    def test_loaded_warehouse_is_ok(self, backend):
        warehouse = small_warehouse(backend, metrics=MetricsRegistry())
        report = warehouse.health()
        assert report["status"] == "ok"
        names = [check["name"] for check in report["checks"]]
        assert "documents_present" in names
        assert "keyword_index_populated" in names
        assert report["stats"]["documents"] == 1

    def test_empty_warehouse_warns(self, backend):
        warehouse = Warehouse(backend=backend, metrics=MetricsRegistry())
        report = warehouse.health()
        assert report["status"] == "warn"
        by_name = {check["name"]: check for check in report["checks"]}
        assert by_name["documents_present"]["status"] == "warn"

    def test_gutted_keyword_index_fails(self, backend):
        """A wiped keyword index over indexed text silently answers
        keyword queries with nothing — a wrong-answer condition, so it
        is FAIL (structural), not WARN (operational)."""
        warehouse = small_warehouse(backend, metrics=MetricsRegistry())
        warehouse.backend.execute("DELETE FROM keywords")
        warehouse.backend.commit()
        report = warehouse.health()
        by_name = {check["name"]: check for check in report["checks"]}
        assert by_name["keyword_index_populated"]["status"] == "fail"
        assert report["status"] == "fail"


class TestFreshness:
    def test_hound_load_sets_freshness(self, backend):
        registry = MetricsRegistry()
        warehouse = Warehouse(backend=backend, metrics=registry)
        repository = InMemoryRepository(metrics=registry)
        repository.publish("hlx_enzyme", "r1", ENZYME_RELEASE)
        warehouse.connect(repository).load("hlx_enzyme")

        report = warehouse.health()
        info = report["freshness"]["hlx_enzyme"]
        assert info["age_s"] is not None
        assert info["age_s"] < 60
        assert info["stale"] is False
        by_name = {check["name"]: check for check in report["checks"]}
        assert by_name["freshness:hlx_enzyme"]["status"] == "ok"

    def test_stale_harvest_warns(self, backend):
        registry = MetricsRegistry()
        warehouse = Warehouse(backend=backend, metrics=registry)
        repository = InMemoryRepository(metrics=registry)
        repository.publish("hlx_enzyme", "r1", ENZYME_RELEASE)
        warehouse.connect(repository).load("hlx_enzyme")

        report = health_report(warehouse, stale_after_s=0.0,
                               clock=lambda: 9e12)   # far future
        info = report["freshness"]["hlx_enzyme"]
        assert info["stale"] is True
        assert report["status"] == "warn"

    def test_no_harvest_recorded_is_not_a_fault(self, backend):
        """A warehouse attached to an existing database has documents
        but no harvest gauge in this process — that must not warn."""
        warehouse = small_warehouse(backend, metrics=MetricsRegistry())
        report = warehouse.health()
        assert report["freshness"]["db"]["age_s"] is None
        by_name = {check["name"]: check for check in report["checks"]}
        assert by_name["freshness:db"]["status"] == "ok"


class TestRendering:
    def test_format_health_lists_every_check(self, backend):
        warehouse = small_warehouse(backend, metrics=MetricsRegistry())
        report = warehouse.health()
        text = format_health(report)
        assert text.startswith("health: OK")
        for check in report["checks"]:
            assert check["name"] in text

    def test_warn_marker(self, backend):
        warehouse = Warehouse(backend=backend, metrics=MetricsRegistry())
        text = format_health(warehouse.health())
        assert text.startswith("health: WARN")
        assert "[!]" in text


class TestResilienceSection:
    def resilient_setup(self, backend, fail=0):
        from repro.datahounds import (FaultInjectingRepository, FaultPlan,
                                      ResilientRepository)
        from repro.resilience import RetryPolicy
        registry = MetricsRegistry()
        warehouse = Warehouse(backend=backend, metrics=registry)
        repository = InMemoryRepository(metrics=registry)
        repository.publish("hlx_enzyme", "r1", ENZYME_RELEASE)
        plan = FaultPlan().fail_then_succeed("hlx_enzyme", fail)
        wrapper = ResilientRepository(
            FaultInjectingRepository(repository, plan, metrics=registry),
            policy=RetryPolicy(max_attempts=3, base_delay_s=0.0),
            breaker_threshold=3, sleep=lambda s: None,
            metrics=registry, events=warehouse.events)
        return warehouse, wrapper

    def test_closed_breaker_reported_ok(self, backend):
        warehouse, wrapper = self.resilient_setup(backend)
        warehouse.connect(wrapper).load("hlx_enzyme")
        report = warehouse.health()
        assert report["resilience"]["breakers"] == {"hlx_enzyme": "closed"}
        by_name = {check["name"]: check for check in report["checks"]}
        assert by_name["breaker:hlx_enzyme"]["status"] == "ok"
        assert by_name["quarantine_empty"]["status"] == "ok"

    def test_open_breaker_warns(self, backend):
        import pytest
        from repro.errors import TransportError
        warehouse, wrapper = self.resilient_setup(backend, fail=99)
        with pytest.raises(TransportError):
            warehouse.connect(wrapper).load("hlx_enzyme")
        report = warehouse.health()
        assert report["resilience"]["breakers"] == {"hlx_enzyme": "open"}
        assert report["resilience"]["fetch_errors"]["hlx_enzyme"] > 0
        assert report["resilience"]["retries"]["hlx_enzyme"] > 0
        by_name = {check["name"]: check for check in report["checks"]}
        assert by_name["breaker:hlx_enzyme"]["status"] == "warn"
        assert report["status"] == "warn"
        assert "[!] breaker:hlx_enzyme" in format_health(report)

    def test_quarantined_entries_warn(self, backend):
        registry = MetricsRegistry()
        warehouse = Warehouse(backend=backend, metrics=registry)
        repository = InMemoryRepository(metrics=registry)
        repository.publish(
            "hlx_enzyme", "r1",
            "ID   1.1.1.1\nDE   fine.\n//\n"
            "ID   1.1.1.2\nDE   broken.\nPR   BAD LINE\n//\n")
        warehouse.connect(repository, quarantine=True).load("hlx_enzyme")
        report = warehouse.health()
        assert report["resilience"]["quarantined"] == {"hlx_enzyme": 1}
        by_name = {check["name"]: check for check in report["checks"]}
        assert by_name["quarantine_empty"]["status"] == "warn"
        assert "hlx_enzyme: 1" in by_name["quarantine_empty"]["detail"]

    def test_no_metrics_means_empty_section(self, backend):
        warehouse = Warehouse(backend=backend, metrics=False)
        report = warehouse.health()
        assert report["resilience"] == {"breakers": {}, "quarantined": {},
                                        "fetch_errors": {}, "retries": {}}
