"""The always-on query service: warehouse resources over HTTP/JSON.

Every caller so far constructed a :class:`~repro.engine.Warehouse`
in-process; this module is the long-running counterpart — one shared
warehouse (or a :class:`~repro.federation.FederatedXomatiQ`) behind a
stdlib :class:`~http.server.ThreadingHTTPServer`, speaking the JSON
resource style of the MiST genomics API (SNIPPETS.md): flat records,
explicit counts, machine-readable errors.

Resources (full schemas in docs/service.md)::

    POST /query                 FLWR text -> rows (JSON) or XML
    GET  /keyword?q=...         inverted-index search -> document hits
    GET  /documents/{doc_id}    reconstructed XML document
    GET  /health                tri-state health report (503 on fail)
    GET  /metrics               metrics snapshot (JSON or Prometheus)
    GET  /stats                 table/row counts
    GET  /traces                retained request traces (summaries)
    GET  /traces/{trace_id}     one span tree (JSON, ?format=chrome)
    POST /harvest               hound-harvest a mirror directory

Work endpoints (query/keyword/documents/harvest) pass admission
control — a hard in-flight cap answering ``503`` and per-client token
buckets answering ``429`` (:mod:`repro.service.admission`) — while the
probe endpoints (health/metrics/stats/traces) bypass it so monitoring
still sees an overloaded node. Every request lands in the engine's
structured event log and the ``service.*`` metrics (per-endpoint
request counters and latency histograms), so the same ``GET /metrics``
the scraper polls also describes the service itself.

Every request is traced end to end: the service mints a
:class:`~repro.obs.trace.TraceContext` (honoring a caller-supplied
``X-Request-Id`` when it is safe to echo) and opens a ``request`` root
span that the engine's own spans — planner, scatter-gather shard
subqueries, per-statement SQL — nest under. The finished tree is
offered to a bounded :class:`~repro.obs.TraceStore` (head sampling
plus always-keep for slow and error traces) and served back on
``GET /traces/{id}``; kept trace ids are also attached to the
``service.request_seconds`` histogram as Prometheus exemplars.
``X-Request-Id`` and ``X-Trace-Id`` are echoed on **every** response,
including 429/503 rejections, so a shed request is still correlatable.

The handler pool shares one warehouse: translation hits the (locked)
compiled-query cache, statements serialize on the backend's connection
lock, and on-disk databases run WAL so out-of-process readers coexist
with the service's writes.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from repro.engine import Warehouse
from repro.errors import ReproError, UnknownDocumentError
from repro.obs.trace import TraceContext
from repro.obs.tracestore import (
    TraceStore,
    chrome_trace,
    trace_summary,
    trace_to_dict,
)
from repro.service.admission import (
    AdmissionController,
    RateLimiter,
    decide,
)
from repro.xmlkit import serialize

#: Prometheus text exposition content type (version 0.0.4)
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

JSON_CONTENT_TYPE = "application/json; charset=utf-8"
XML_CONTENT_TYPE = "application/xml; charset=utf-8"

#: endpoints that must answer even when the node sheds load
_UNGATED = frozenset({"health", "metrics", "stats", "traces"})


@dataclass
class ServiceConfig:
    """Operator knobs (docs/service.md documents each)."""

    host: str = "127.0.0.1"
    port: int = 8014
    #: concurrently executing work requests before 503 load-shedding
    max_in_flight: int = 64
    #: sustained requests/second allowed per client id (0 = unlimited)
    rate_limit: float = 0.0
    #: short-burst allowance per client (default: 2 x rate_limit)
    rate_burst: float | None = None
    #: request bodies above this answer 413 (a query is a few KiB)
    max_body_bytes: int = 1_048_576
    #: default / maximum hits per keyword search
    keyword_limit: int = 50
    keyword_limit_max: int = 500
    #: retained finished traces (ring buffer; 0 disables tracing)
    trace_capacity: int = 256
    #: head-sampling rate for routine traces (slow/error always kept)
    trace_sample: float = 1.0
    #: root spans at or over this duration are kept regardless
    trace_slow_ms: float = 500.0
    #: standing-query subscriptions (False disables the endpoints)
    subscriptions: bool = True
    #: delivery-bus worker threads / per-subscriber queue bound
    subscription_workers: int = 2
    subscription_queue_max: int = 64
    #: per-subscription event ring (Last-Event-Id resume window)
    subscription_channel_capacity: int = 256
    #: hard cap on one long-poll / SSE wait (seconds); a held request
    #: occupies an admission slot, so the cap bounds slot occupancy
    subscription_poll_max_s: float = 30.0


@dataclass
class Response:
    """One protocol-independent response (the HTTP layer frames it)."""

    status: int
    payload: object = None            # JSON-able; ignored when body set
    body: bytes | None = None         # pre-encoded (XML, Prometheus)
    content_type: str = JSON_CONTENT_TYPE
    headers: dict = field(default_factory=dict)
    #: when set, the HTTP layer streams these byte chunks instead of a
    #: fixed body (SSE); the connection closes when the iterator ends
    stream: object = None

    def encoded(self) -> bytes:
        """The wire body."""
        if self.body is not None:
            return self.body
        return json.dumps(self.payload, sort_keys=True).encode("utf-8")


class QueryService:
    """Routes service requests onto one shared engine.

    ``engine`` is a :class:`~repro.engine.Warehouse` or a
    :class:`~repro.federation.FederatedXomatiQ`; both answer the same
    calls (:class:`~repro.engine.Engine`), so the service never asks
    which it holds — except to offer standing queries, which need a
    warehouse's trigger hub. Protocol-independent so tests and
    benchmarks can drive :meth:`handle` without sockets.
    """

    def __init__(self, engine, config: ServiceConfig | None = None,
                 events=None):
        from repro.obs import NULL_TRACER
        self.engine = engine
        self.config = config or ServiceConfig()
        self.metrics = engine.metrics
        self.events = events if events is not None else engine.events
        self.admission = AdmissionController(self.config.max_in_flight)
        self.rate_limiter = RateLimiter(self.config.rate_limit,
                                        self.config.rate_burst)
        if self.config.trace_capacity > 0:
            #: shared with the engine — planner / shard / SQL spans
            #: nest under the per-request root this service opens
            self.tracer = engine.enable_tracing(
                max_spans=self.config.trace_capacity)
            self.trace_store = TraceStore(
                capacity=self.config.trace_capacity,
                sample_rate=self.config.trace_sample,
                slow_ms=self.config.trace_slow_ms)
        else:
            self.tracer = NULL_TRACER
            self.trace_store = None
        self._in_flight_gauge = self.metrics.gauge("service.in_flight")
        #: one harvest at a time — concurrent mirror pulls into one
        #: warehouse would interleave release snapshots
        self._harvest_lock = threading.Lock()
        #: standing-query push (warehouse engines only: a federation
        #: has no trigger hub — subscribe per shard instead)
        self.subscriptions = None
        if self.config.subscriptions and isinstance(engine, Warehouse):
            from repro.subscriptions import SubscriptionManager
            self.subscriptions = SubscriptionManager(
                engine,
                workers=self.config.subscription_workers,
                queue_max=self.config.subscription_queue_max,
                channel_capacity=self.config.subscription_channel_capacity)

    # -- request entry ------------------------------------------------------

    def handle(self, method: str, target: str, body: bytes = b"",
               client: str = "", headers=None) -> Response:
        """Route one request; never raises (errors become responses)."""
        started = time.perf_counter()
        split = urlsplit(target)
        path = split.path.rstrip("/") or "/"
        params = {key: values[-1] for key, values
                  in parse_qs(split.query).items()}
        endpoint, tail = self._route(path)
        client_id = (headers or {}).get("X-Client-Id") or client or "-"
        inbound_id = (headers or {}).get("X-Request-Id") or ""
        context = TraceContext.mint(inbound_id)
        # echo the caller's id when it was safe to honor (mint adopted
        # it as the trace id), else the minted id — never raw junk
        request_id = context.trace_id
        gated = endpoint not in _UNGATED and endpoint != "unknown"
        admitted = False
        with self.tracer.span("request", context=context,
                              endpoint=endpoint, method=method,
                              path=path) as root:
            try:
                refusal = None
                if gated:
                    admitted, refusal = self._admit(client_id)
                if refusal == "rate_limit":
                    response = self._reject(429, "rate limit exceeded",
                                            "rate_limit", client_id,
                                            request_id)
                elif refusal == "capacity":
                    response = self._reject(503, "service at capacity",
                                            "capacity", client_id,
                                            request_id)
                else:
                    if admitted:
                        self._in_flight_gauge.set(self.admission.in_flight)
                    response = self._dispatch(endpoint, tail, method,
                                              params, body, headers or {})
            except UnknownDocumentError as exc:
                response = _error(404, exc)
            except ReproError as exc:
                response = _error(400, exc)
            except Exception as exc:   # one bad request must not kill a node
                response = _error(500, exc)
            finally:
                if admitted:
                    self.admission.release()
                    self._in_flight_gauge.set(self.admission.in_flight)
        response.headers.setdefault("X-Request-Id", request_id)
        kept = None
        if self.tracer.enabled:
            response.headers.setdefault("X-Trace-Id", context.trace_id)
            root.meta["status"] = response.status
            # /traces requests are not offered to the store — the trace
            # CLI polling for traces must not become the newest trace
            if endpoint != "traces":
                kept = self.trace_store.offer(
                    root, request_id=request_id, endpoint=endpoint,
                    status=response.status,
                    error=response.status >= 500)
        duration_s = time.perf_counter() - started
        self._observe(endpoint, method, path, response.status,
                      duration_s, client_id, request_id,
                      trace_id=context.trace_id if kept is not None
                      else "")
        return response

    def _admit(self, client_id: str) -> tuple[bool, str | None]:
        """Both gates, under an ``admission`` span when tracing — a
        shed request's trace shows *where* it was turned away."""
        with self.tracer.span("admission", client=client_id) as span:
            admitted, refusal = decide(self.rate_limiter,
                                       self.admission, client_id)
            if refusal:
                span.meta["refused"] = refusal
            return admitted, refusal

    def close(self) -> None:
        """Release the engine (the server owns it in CLI mode)."""
        if self.subscriptions is not None:
            self.subscriptions.close()
        self.engine.close()

    # -- routing ------------------------------------------------------------

    @staticmethod
    def _route(path: str) -> tuple[str, str]:
        if path == "/documents" or path.startswith("/documents/"):
            return "documents", path[len("/documents/"):]
        if path == "/traces" or path.startswith("/traces/"):
            return "traces", path[len("/traces/"):]
        if path == "/subscriptions" or path.startswith("/subscriptions/"):
            return "subscriptions", path[len("/subscriptions/"):]
        name = path.lstrip("/")
        if name in ("query", "keyword", "health", "metrics", "stats",
                    "harvest"):
            return name, ""
        return "unknown", ""

    def _dispatch(self, endpoint: str, tail: str, method: str,
                  params: dict, body: bytes, headers) -> Response:
        if endpoint == "unknown":
            return _error(404, "no such resource")
        if endpoint == "subscriptions":
            if len(body) > self.config.max_body_bytes:
                return _error(413, "request body too large")
            return self._subscriptions(tail, method, params, body,
                                       headers)
        expected = "POST" if endpoint in ("query", "harvest") else "GET"
        if method != expected:
            return Response(405, {"error": f"{endpoint} expects "
                                           f"{expected}"},
                            headers={"Allow": expected})
        if len(body) > self.config.max_body_bytes:
            return _error(413, "request body too large")
        if endpoint == "query":
            return self._query(_json_body(body), headers)
        if endpoint == "keyword":
            return self._keyword(params)
        if endpoint == "documents":
            return self._document(tail, params)
        if endpoint == "health":
            return self._health()
        if endpoint == "metrics":
            return self._metrics(params)
        if endpoint == "traces":
            return self._traces(tail, params)
        if endpoint == "stats":
            payload = self.engine.stats()
            optimizer = self.engine.optimizer_stats()
            if optimizer is not None:
                payload = {**payload, "optimizer": optimizer}
            return Response(200, payload)
        return self._harvest(_json_body(body))

    # -- resources ----------------------------------------------------------

    def _query(self, request: dict, headers=None) -> Response:
        text = request.get("query")
        if not isinstance(text, str) or not text.strip():
            return _error(400, 'body must carry a "query" string')
        fmt = request.get("format", "rows")
        if fmt not in ("rows", "xml"):
            return _error(400, f'unknown format {fmt!r} '
                               '(expected "rows" or "xml")')
        mode = request.get("mode", "partial")
        if mode not in ("strict", "partial"):
            return _error(400, f'unknown mode {mode!r} '
                               '(expected "strict" or "partial")')
        deadline_s = None
        raw_deadline = (headers or {}).get("X-Deadline-Ms")
        if raw_deadline:
            try:
                deadline_s = float(raw_deadline) / 1000.0
            except ValueError:
                return _error(400, "X-Deadline-Ms must be a number "
                                   "of milliseconds")
            if deadline_s <= 0:
                return _error(400, "X-Deadline-Ms must be positive")
        result = self.engine.query(text, deadline_s=deadline_s)
        missing = list(result.failed_shards)
        if not result.complete and mode == "strict":
            # strict callers would rather retry than act on a partial
            # answer
            self.metrics.inc("service.strict_refusals")
            return Response(503, {
                "error": "partial results refused (mode=strict)",
                "reason": "degraded",
                "missing_shards": missing,
                "warnings": list(result.warnings),
            }, headers={"Retry-After": str(self.engine.retry_after_s)})
        degraded_headers = {}
        if not result.complete:
            degraded_headers["X-Partial-Results"] = "true"
            self.metrics.inc("service.partial_responses")
        if fmt == "xml":
            return Response(200, body=result.to_xml().encode("utf-8"),
                            content_type=XML_CONTENT_TYPE,
                            headers=degraded_headers)
        return Response(200, {
            "columns": result.columns,
            "variables": result.variables,
            "row_count": len(result),
            "complete": result.complete,
            "partial": not result.complete,
            "missing_shards": missing,
            "warnings": list(result.warnings),
            "rows": [_row_record(row) for row in result.rows],
        }, headers=degraded_headers)

    def _keyword(self, params: dict) -> Response:
        phrase = params.get("q", "")
        if not phrase.strip():
            return _error(400, 'provide search terms via "?q="')
        try:
            limit = int(params.get("limit", self.config.keyword_limit))
        except ValueError:
            return _error(400, '"limit" must be an integer')
        limit = max(1, min(limit, self.config.keyword_limit_max))
        hits = self.engine.keyword_search(
            phrase, source=params.get("source"), limit=limit)
        return Response(200, {"query": phrase, "limit": limit,
                              "count": len(hits), "results": hits})

    def _document(self, tail: str, params: dict) -> Response:
        if not tail or not tail.isdigit():
            return _error(400, "document path must be "
                               "/documents/{doc_id}")
        try:
            document = self.engine.find_document(
                int(tail), shard=params.get("shard") or None)
        except UnknownDocumentError as exc:
            # a plain message, so the 404 body's "type" stays "error"
            return _error(404, str(exc))
        return Response(200, body=serialize(document).encode("utf-8"),
                        content_type=XML_CONTENT_TYPE)

    def _health(self) -> Response:
        report = self.engine.health()
        status = 503 if report["status"] == "fail" else 200
        return Response(status, report)

    def _metrics(self, params: dict) -> Response:
        if params.get("format") == "prometheus":
            text = self.metrics.render_prometheus()
            return Response(200, body=text.encode("utf-8"),
                            content_type=PROMETHEUS_CONTENT_TYPE)
        return Response(200, self.metrics.snapshot())

    def _traces(self, tail: str, params: dict) -> Response:
        if self.trace_store is None:
            return _error(404, "tracing is disabled on this node "
                               "(trace_capacity = 0)")
        if tail:
            record = self.trace_store.get(tail)
            if record is None:
                return _error(404, f"no retained trace {tail} (the "
                                   "store is bounded; it may have been "
                                   "evicted or sampled out)")
            fmt = params.get("format", "json")
            if fmt == "chrome":
                return Response(200, chrome_trace(record))
            if fmt != "json":
                return _error(400, f'unknown format {fmt!r} '
                                   '(expected "json" or "chrome")')
            return Response(200, trace_to_dict(record))
        try:
            limit = int(params["limit"]) if "limit" in params else None
        except ValueError:
            return _error(400, '"limit" must be an integer')
        records = self.trace_store.records(limit)
        return Response(200, {
            "count": len(records),
            "offered": self.trace_store.offered,
            "kept": self.trace_store.kept,
            "capacity": self.trace_store.capacity,
            "traces": [trace_summary(record) for record in records],
        })

    def _harvest(self, request: dict) -> Response:
        repo = request.get("repo")
        if not isinstance(repo, str) or not repo:
            return _error(400, 'body must carry a "repo" mirror '
                               'directory')
        if not self._harvest_lock.acquire(blocking=False):
            return Response(409, {"error": "a harvest is already "
                                           "running"})
        try:
            from repro.datahounds.transport import DirectoryRepository
            report = self.engine.harvest(
                DirectoryRepository(repo),
                sources=request.get("sources"),
                quarantine=bool(request.get("quarantine", False)),
                retries=request.get("retries"),
                fail_fast=bool(request.get("fail_fast", False)))
        finally:
            self._harvest_lock.release()
        payload = {
            "ok": report.ok,
            "documents_loaded": report.documents_loaded,
            "reports": {
                source: {
                    "release": load.release,
                    "documents_loaded": load.documents_loaded,
                    "added": len(load.plan.added),
                    "updated": len(load.plan.updated),
                    "removed": len(load.plan.removed),
                    "unchanged": len(load.plan.unchanged),
                    "quarantined": len(load.quarantined),
                } for source, load in report.reports.items()},
            "failures": {
                source: {"error": failure.error,
                         "type": failure.error_type}
                for source, failure in report.failures.items()},
        }
        return Response(200 if report.ok else 502, payload)

    # -- subscriptions ------------------------------------------------------

    def _subscriptions(self, tail: str, method: str, params: dict,
                       body: bytes, headers) -> Response:
        """The push surface (docs/subscriptions.md):

        * ``POST /subscriptions``               create (FLWR body)
        * ``GET  /subscriptions``               list registrations
        * ``GET  /subscriptions/{id}/events``   long-poll or SSE tail
        * ``DELETE /subscriptions/{id}``        cancel

        All of it is admission-gated like any other work endpoint; a
        long-poll/SSE wait holds its admission slot, so waits are
        clamped to ``subscription_poll_max_s``.
        """
        if self.subscriptions is None:
            return _error(404, "subscriptions are disabled on this "
                               "node (federated engine or "
                               "subscriptions=False)")
        if not tail:
            if method == "POST":
                return self._subscription_create(_json_body(body))
            if method == "GET":
                return Response(200, {
                    "count": len(self.subscriptions.subscriptions()),
                    "subscriptions": [
                        sub.as_record() for sub
                        in self.subscriptions.subscriptions()],
                })
            return Response(405, {"error": "subscriptions expects "
                                           "POST or GET"},
                            headers={"Allow": "POST, GET"})
        if tail.endswith("/events"):
            sub_id = tail[:-len("/events")]
            if method != "GET":
                return Response(405, {"error": "events expects GET"},
                                headers={"Allow": "GET"})
            return self._subscription_events(sub_id, params, headers)
        if "/" in tail:
            return _error(404, "subscription paths are "
                               "/subscriptions/{id} and "
                               "/subscriptions/{id}/events")
        if method == "DELETE":
            if not self.subscriptions.unsubscribe(tail):
                return _error(404, f"no subscription {tail}")
            return Response(200, {"id": tail, "cancelled": True})
        if method == "GET":
            subscription = self.subscriptions.get(tail)
            if subscription is None:
                return _error(404, f"no subscription {tail}")
            return Response(200, subscription.as_record())
        return Response(405, {"error": "subscription expects GET or "
                                       "DELETE"},
                        headers={"Allow": "GET, DELETE"})

    def _subscription_create(self, request: dict) -> Response:
        text = request.get("query")
        if not isinstance(text, str) or not text.strip():
            return _error(400, 'body must carry a "query" string')
        policy = request.get("policy", "coalesce")
        from repro.subscriptions import POLICIES
        if policy not in POLICIES:
            return _error(400, f"unknown policy {policy!r} (expected "
                               f"one of {', '.join(POLICIES)})")
        persist = bool(request.get("persist", True))
        subscription = self.subscriptions.subscribe(
            text, policy=policy, persist=persist)
        self.metrics.inc("service.subscriptions_created")
        self.events.emit("service.subscription_created",
                         sub_id=subscription.id, policy=policy)
        return Response(201, subscription.as_record())

    def _subscription_events(self, sub_id: str, params: dict,
                             headers) -> Response:
        subscription = self.subscriptions.get(sub_id)
        if subscription is None:
            return _error(404, f"no subscription {sub_id}")
        channel = subscription.channel
        if channel is None:
            return _error(400, f"subscription {sub_id} delivers to an "
                               f"in-process callback, not a channel")
        after = 0
        raw_after = params.get("after") \
            or (headers or {}).get("Last-Event-Id")
        if raw_after:
            try:
                after = int(raw_after)
            except ValueError:
                return _error(400, "Last-Event-Id / ?after= must be an "
                                   "integer event id")
        try:
            timeout = float(params.get("timeout", 0.0))
            limit = int(params.get("limit", 100))
        except ValueError:
            return _error(400, '"timeout" and "limit" must be numbers')
        timeout = max(0.0, min(timeout,
                               self.config.subscription_poll_max_s))
        if params.get("stream") == "sse":
            return self._subscription_sse(sub_id, channel, after, params)
        events, last_id = channel.poll(after=after, timeout=timeout,
                                       limit=limit)
        return Response(200, {
            "id": sub_id,
            "events": [{"id": event_id, "delta": payload}
                       for event_id, payload in events],
            "next": last_id,
            "lost_events": channel.lost,
        })

    def _subscription_sse(self, sub_id: str, channel, after: int,
                          params: dict) -> Response:
        """``text/event-stream`` tail: numbered ``id:``/``data:``
        frames, comment heartbeats while idle, bounded by
        ``max_events``/``max_seconds`` (and always by the poll cap per
        wait) so a stream cannot hold its slot forever."""
        from repro.subscriptions import payload_json
        try:
            max_events = int(params.get("max_events", 0))
            max_seconds = float(params.get(
                "max_seconds", self.config.subscription_poll_max_s))
        except ValueError:
            return _error(400, '"max_events" and "max_seconds" must be '
                               'numbers')
        max_seconds = max(0.1, min(max_seconds,
                                   self.config.subscription_poll_max_s))

        def frames():
            yield b"retry: 1000\n\n"
            cursor = after
            sent = 0
            deadline = time.perf_counter() + max_seconds
            while time.perf_counter() < deadline:
                wait = min(1.0, max(0.0,
                                    deadline - time.perf_counter()))
                events, last_id = channel.poll(after=cursor,
                                               timeout=wait, limit=100)
                if not events:
                    yield b": keep-alive\n\n"
                    continue
                for event_id, payload in events:
                    cursor = event_id
                    sent += 1
                    data = payload_json(payload)
                    yield (f"id: {event_id}\n"
                           f"data: {data}\n\n").encode("utf-8")
                    if max_events and sent >= max_events:
                        return
            # explicit end-of-window marker so tails distinguish a
            # server-closed window from a dead connection
            yield b"event: end\ndata: {}\n\n"

        return Response(200, stream=frames(),
                        content_type="text/event-stream; charset=utf-8",
                        headers={"Cache-Control": "no-store",
                                 "X-Subscription-Id": sub_id})

    # -- observability ------------------------------------------------------

    def _reject(self, status: int, message: str, reason: str,
                client: str, request_id: str = "") -> Response:
        self.metrics.inc("service.rejected", reason=reason)
        self.events.emit("service.rejected", severity="warning",
                         reason=reason, client=client,
                         request_id=request_id)
        headers = {"Retry-After": "1"} if status in (429, 503) else {}
        return Response(status, {"error": message, "reason": reason,
                                 "request_id": request_id},
                        headers=headers)

    def _observe(self, endpoint: str, method: str, path: str,
                 status: int, duration_s: float, client: str,
                 request_id: str = "", trace_id: str = "") -> None:
        self.metrics.inc("service.requests", endpoint=endpoint,
                         status=status)
        # a kept trace id rides along as the histogram exemplar, so a
        # slow bucket links straight to the trace that filled it
        self.metrics.observe("service.request_seconds", duration_s,
                             endpoint=endpoint, exemplar=trace_id or None)
        self.events.emit("service.request",
                         severity="warning" if status >= 500 else "info",
                         method=method, path=path, status=status,
                         duration_ms=round(duration_s * 1000.0, 3),
                         client=client, request_id=request_id)


def _row_record(row) -> dict:
    """One result row as a JSON record; federated bindings keep their
    shard so the client can fetch the document."""
    bindings = {}
    for variable, node in row.bindings.items():
        record = {"doc_id": node.doc_id, "node_id": node.node_id}
        shard = getattr(node, "shard", None)
        if shard is not None:
            record["shard"] = shard
        bindings[variable] = record
    return {"bindings": bindings, "values": row.values}


def _json_body(body: bytes) -> dict:
    if not body:
        return {}
    try:
        parsed = json.loads(body.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ReproError(f"request body is not valid JSON: {exc}") \
            from None
    if not isinstance(parsed, dict):
        raise ReproError("request body must be a JSON object")
    return parsed


def _error(status: int, error) -> Response:
    return Response(status, {"error": str(error),
                             "type": type(error).__name__
                             if isinstance(error, Exception) else
                             "error"})


# -- the HTTP layer ---------------------------------------------------------


class _Handler(BaseHTTPRequestHandler):
    """Frames :meth:`QueryService.handle` responses onto sockets."""

    server_version = "xomatiq"
    #: HTTP/1.1 keeps benchmark client connections alive between
    #: requests (Content-Length is always sent, so framing is sound)
    protocol_version = "HTTP/1.1"

    def do_GET(self) -> None:          # noqa: N802 - stdlib contract
        self._respond(b"")

    def do_POST(self) -> None:         # noqa: N802 - stdlib contract
        try:
            length = int(self.headers.get("Content-Length", 0) or 0)
        except ValueError:
            length = 0
        self._respond(self.rfile.read(length) if length > 0 else b"")

    def do_DELETE(self) -> None:       # noqa: N802 - stdlib contract
        self._respond(b"")

    def _respond(self, body: bytes) -> None:
        service: QueryService = self.server.service
        response = service.handle(
            self.command, self.path, body=body,
            client=self.client_address[0], headers=self.headers)
        if response.stream is not None:
            self._stream(response)
            return
        encoded = response.encoded()
        try:
            self.send_response(response.status)
            self.send_header("Content-Type", response.content_type)
            self.send_header("Content-Length", str(len(encoded)))
            for name, value in response.headers.items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(encoded)
        except (BrokenPipeError, ConnectionResetError):
            # the client gave up while we were answering — routine for
            # long-poll subscribers; the work is done, drop the reply
            self.close_connection = True

    def _stream(self, response: Response) -> None:
        """Unframed streaming (SSE): no Content-Length, connection
        closes when the iterator ends or the client hangs up."""
        self.close_connection = True
        self.send_response(response.status)
        self.send_header("Content-Type", response.content_type)
        self.send_header("Connection", "close")
        for name, value in response.headers.items():
            self.send_header(name, value)
        self.end_headers()
        try:
            for chunk in response.stream:
                self.wfile.write(chunk)
                self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError):
            pass   # client went away mid-stream; nothing to clean up

    def log_message(self, format: str, *args) -> None:
        """Silenced — requests land in the structured event log."""


class ServiceServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one :class:`QueryService`.

    ``serve_forever`` runs until :meth:`shutdown`; ``close`` also
    releases the engine. ``daemon_threads`` keeps a hung handler from
    blocking process exit — graceful drain is the in-flight cap's job.
    """

    daemon_threads = True
    allow_reuse_address = True
    #: socketserver's default listen backlog is 5; a burst of clients
    #: connecting at once overflows it and the kernel resets the
    #: overflow connections before a handler ever sees them. Admission
    #: control is the layer that sheds load — the backlog just has to
    #: be deep enough that the decision is ours, not the kernel's.
    request_queue_size = 128

    def __init__(self, service: QueryService,
                 address: tuple[str, int] | None = None):
        self.service = service
        config = service.config
        super().__init__(address or (config.host, config.port), _Handler)

    @property
    def url(self) -> str:
        """The server's base URL (port 0 resolves after bind)."""
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def close(self) -> None:
        """Stop accepting, close the socket, release the engine."""
        self.shutdown()
        self.server_close()
        self.service.close()


def serve(engine, config: ServiceConfig | None = None) -> ServiceServer:
    """Bind a server for ``engine`` (not yet serving — the caller runs
    ``serve_forever``, usually on a background thread)."""
    return ServiceServer(QueryService(engine, config=config))
