"""Service-layer tracing: per-request trace minting, ``X-Request-Id``
/ ``X-Trace-Id`` echo on **every** response path (success, errors,
and 429/503 load-shedding), the ``/traces`` API, histogram exemplars,
and request-id stamping in the structured event log."""

import json

import pytest

from repro.engine import Warehouse
from repro.obs import MetricsRegistry
from repro.service import QueryService, ServiceConfig
from repro.synth import build_corpus

QUERY = ('FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme '
         'RETURN $a//enzyme_id')


@pytest.fixture(scope="module")
def trace_corpus():
    return build_corpus(seed=7, enzyme_count=10, embl_count=10,
                        sprot_count=10)


def make_service(trace_corpus, **config):
    warehouse = Warehouse(metrics=MetricsRegistry())
    warehouse.load_corpus(trace_corpus)
    return QueryService(warehouse, config=ServiceConfig(**config))


@pytest.fixture
def service(trace_corpus):
    svc = make_service(trace_corpus)
    yield svc
    svc.close()


def query_body(text=QUERY):
    return json.dumps({"query": text}).encode()


class TestRequestIdEcho:
    def test_success_echoes_inbound_id(self, service):
        response = service.handle("POST", "/query", body=query_body(),
                                  headers={"X-Request-Id": "req-1"})
        assert response.status == 200
        assert response.headers["X-Request-Id"] == "req-1"
        assert response.headers["X-Trace-Id"] == "req-1"

    def test_fresh_id_minted_when_absent(self, service):
        response = service.handle("GET", "/health")
        assert response.headers["X-Request-Id"]
        assert response.headers["X-Trace-Id"] == \
            response.headers["X-Request-Id"]

    def test_unsafe_inbound_id_is_not_echoed_raw(self, service):
        response = service.handle(
            "GET", "/health",
            headers={"X-Request-Id": "evil\r\nSet-Cookie: x"})
        echoed = response.headers["X-Request-Id"]
        assert "\r" not in echoed and "\n" not in echoed
        assert echoed != "evil\r\nSet-Cookie: x"

    @pytest.mark.parametrize("method,target,body,expected", [
        ("GET", "/nope", b"", 404),
        ("GET", "/query", b"", 405),
        ("POST", "/query", b"not json", 400),
        ("GET", "/documents/999999", b"", 404),
    ])
    def test_error_paths_echo_headers(self, service, method, target,
                                      body, expected):
        response = service.handle(method, target, body=body,
                                  headers={"X-Request-Id": "req-err"})
        assert response.status == expected
        assert response.headers["X-Request-Id"] == "req-err"
        assert response.headers["X-Trace-Id"] == "req-err"

    def test_429_rejection_echoes_headers(self, trace_corpus):
        service = make_service(trace_corpus, rate_limit=0.001,
                               rate_burst=1.0)
        try:
            service.handle("POST", "/query", body=query_body())
            response = service.handle(
                "POST", "/query", body=query_body(),
                headers={"X-Request-Id": "req-shed"})
            assert response.status == 429
            assert response.headers["X-Request-Id"] == "req-shed"
            assert response.headers["X-Trace-Id"] == "req-shed"
            assert response.payload["request_id"] == "req-shed"
            event = service.events.events(name="service.rejected")[-1]
            assert event.fields["request_id"] == "req-shed"
        finally:
            service.close()

    def test_503_rejection_echoes_headers(self, service):
        while service.admission.try_admit():
            pass
        try:
            response = service.handle(
                "POST", "/query", body=query_body(),
                headers={"X-Request-Id": "req-cap"})
            assert response.status == 503
            assert response.headers["X-Request-Id"] == "req-cap"
            assert response.headers["X-Trace-Id"] == "req-cap"
            event = service.events.events(name="service.rejected")[-1]
            assert event.fields["request_id"] == "req-cap"
        finally:
            for __ in range(service.admission.max_in_flight):
                service.admission.release()

    def test_request_event_carries_request_id(self, service):
        service.handle("GET", "/stats",
                       headers={"X-Request-Id": "req-evt"})
        event = service.events.events(name="service.request")[-1]
        assert event.fields["request_id"] == "req-evt"


class TestTracesApi:
    def test_query_trace_resolvable_by_id(self, service):
        response = service.handle("POST", "/query", body=query_body(),
                                  headers={"X-Request-Id": "req-t1"})
        assert response.status == 200
        trace = service.handle("GET", "/traces/req-t1")
        assert trace.status == 200
        payload = trace.payload
        assert payload["format"] == "xomatiq-trace/1"
        assert payload["endpoint"] == "query"
        assert payload["status"] == 200
        root = payload["root"]
        assert root["name"] == "request"
        names = [child["name"] for child in root["children"]]
        assert names[0] == "admission"
        assert "query" in names
        # connected: every child points back to its parent span
        def check(span):
            for child in span["children"]:
                assert child["parent_id"] == span["span_id"]
                assert child["trace_id"] == span["trace_id"]
                check(child)
        check(root)

    def test_listing_and_limit(self, service):
        for index in range(3):
            service.handle("GET", "/health",
                           headers={"X-Request-Id": f"req-l{index}"})
        listing = service.handle("GET", "/traces").payload
        assert listing["kept"] >= 3
        assert listing["capacity"] == service.config.trace_capacity
        ids = [t["trace_id"] for t in listing["traces"]]
        assert ids[0] == "req-l2"   # newest first
        limited = service.handle("GET", "/traces?limit=2").payload
        assert len(limited["traces"]) == 2
        assert service.handle("GET", "/traces?limit=x").status == 400

    def test_unknown_trace_404(self, service):
        assert service.handle("GET", "/traces/ghost").status == 404

    def test_chrome_format(self, service):
        service.handle("POST", "/query", body=query_body(),
                       headers={"X-Request-Id": "req-chrome"})
        response = service.handle(
            "GET", "/traces/req-chrome?format=chrome")
        assert response.status == 200
        events = response.payload["traceEvents"]
        assert {"request", "admission", "query"} <= \
            {e["name"] for e in events if e["ph"] == "X"}
        json.dumps(response.payload)
        bad = service.handle("GET", "/traces/req-chrome?format=yaml")
        assert bad.status == 400

    def test_traces_endpoint_not_self_retained(self, service):
        service.handle("GET", "/health",
                       headers={"X-Request-Id": "req-only"})
        service.handle("GET", "/traces",
                       headers={"X-Request-Id": "req-poll"})
        listing = service.handle("GET", "/traces").payload
        ids = {t["trace_id"] for t in listing["traces"]}
        assert "req-only" in ids
        assert "req-poll" not in ids

    def test_traces_bypass_admission(self, service):
        while service.admission.try_admit():
            pass
        try:
            assert service.handle("GET", "/traces").status == 200
        finally:
            for __ in range(service.admission.max_in_flight):
                service.admission.release()

    def test_error_response_trace_kept_as_error(self, trace_corpus):
        service = make_service(trace_corpus, trace_sample=0.0)
        try:
            service.handle("POST", "/query", body=query_body(),
                           headers={"X-Request-Id": "req-ok"})
            # routine trace sampled out at rate 0.0 ...
            assert service.handle(
                "GET", "/traces/req-ok").status == 404
            # ... but a 5xx is always kept
            original = service.engine.query
            service.engine.query = lambda text: 1 / 0
            try:
                crashed = service.handle(
                    "POST", "/query", body=query_body(),
                    headers={"X-Request-Id": "req-boom"})
            finally:
                service.engine.query = original
            assert crashed.status == 500
            trace = service.handle("GET", "/traces/req-boom").payload
            assert trace["kept"] == "error"
            assert trace["error"] is True
        finally:
            service.close()


class TestExemplars:
    def test_kept_trace_becomes_histogram_exemplar(self, service):
        service.handle("POST", "/query", body=query_body(),
                       headers={"X-Request-Id": "req-ex"})
        text = service.metrics.render_prometheus()
        exemplar_lines = [
            line for line in text.splitlines()
            if "service_request_seconds_bucket" in line and " # " in line]
        assert exemplar_lines
        assert any('trace_id="req-ex"' in line
                   for line in exemplar_lines)

    def test_unkept_trace_leaves_no_exemplar(self, trace_corpus):
        service = make_service(trace_corpus, trace_sample=0.0)
        try:
            service.handle("POST", "/query", body=query_body())
            text = service.metrics.render_prometheus()
            for line in text.splitlines():
                if "service_request_seconds" in line:
                    assert " # " not in line
        finally:
            service.close()


class TestTracingDisabled:
    def test_capacity_zero_disables_cleanly(self, trace_corpus):
        service = make_service(trace_corpus, trace_capacity=0)
        try:
            assert not service.tracer.enabled
            response = service.handle(
                "POST", "/query", body=query_body(),
                headers={"X-Request-Id": "req-off"})
            assert response.status == 200
            # request ids still echo; there is just no trace to link
            assert response.headers["X-Request-Id"] == "req-off"
            assert "X-Trace-Id" not in response.headers
            assert service.handle("GET", "/traces").status == 404
        finally:
            service.close()


class TestStoreBounds:
    def test_ring_capacity_enforced(self, trace_corpus):
        service = make_service(trace_corpus, trace_capacity=4)
        try:
            for index in range(10):
                service.handle("GET", "/health",
                               headers={"X-Request-Id": f"r{index}"})
            listing = service.handle("GET", "/traces").payload
            assert listing["count"] == 4
            assert [t["trace_id"] for t in listing["traces"]] == \
                ["r9", "r8", "r7", "r6"]
            assert listing["offered"] == 10
        finally:
            service.close()
