"""serve_mixed: an HTTP request becomes a response.

``python -m repro.cli serve --db <file> --port 0`` runs as a
subprocess over a warehouse on disk. Two closed-loop clients, each
holding one keep-alive ``http.client.HTTPConnection`` with stdlib
defaults, send the mist-api-shaped mix: 60 % ``GET /keyword``, 10 %
``GET /documents/{id}``, 20 % ``POST /query`` sub-tree, 10 % ``POST
/query`` join, over 8 canned requests — the server's compiled-query
cache always hits, so socket framing, ``ThreadingHTTPServer``,
admission, JSON shaping and per-request tracing are what is measured.
"""

from __future__ import annotations

import http.client
import json
import os
import select
import signal
import subprocess
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter
from urllib.parse import urlencode

import harvest
import inputs
import library
from harness import (Answers, Context, Measurement, closed_loop, digest,
                     median, mix_metrics, remove_database, throughput)
from spec import CLIENTS, SRC
from trace import TimedBackend, relational_metrics

from repro.engine import Warehouse
from repro.relational.sqlite_backend import SqliteBackend
from repro.service import QueryService
from repro.xmlkit import serialize

SEQUENCE_LENGTH = 5_000
START_TIMEOUT_S = 60.0


def request_of(op: inputs.Op) -> tuple[str, str, bytes]:
    """``(method, target, body)`` of one operation."""
    if op.kind == "keyword":
        phrase, source = op.arg
        params = {"q": phrase}
        if source is not None:
            params["source"] = source
        return "GET", f"/keyword?{urlencode(params)}", b""
    if op.kind == "document":
        return "GET", f"/documents/{op.arg}", b""
    return "POST", "/query", json.dumps({"query": op.arg}).encode("utf-8")


class Refused(Exception):
    """A response that is not 200: the operation failed."""


class Client:
    """One caller: a keep-alive connection and what it saw."""

    def __init__(self, host: str, port: int):
        self.connection = http.client.HTTPConnection(host, port, timeout=60)
        self.statuses: Counter = Counter()
        self.sizes: list[int] = []

    def send(self, method: str, target: str, body: bytes = b""
             ) -> tuple[int, bytes]:
        """One request; the body is read before this returns."""
        headers = {"Content-Type": "application/json"} if body else {}
        self.connection.request(method, target, body=body or None,
                                headers=headers)
        response = self.connection.getresponse()
        return response.status, response.read()

    def execute(self, op: inputs.Op) -> bytes:
        status, payload = self.send(*request_of(op))
        self.statuses[status] += 1
        if status != 200:
            raise Refused(status)
        self.sizes.append(len(payload))
        return payload

    def close(self) -> None:
        self.connection.close()


class Served:
    """The database file and the ``serve`` subprocess over it."""

    def __init__(self, ctx: Context):
        corpus = inputs.corpus(ctx.scale.query_corpus)
        self.texts = corpus.texts()
        self.path = ctx.workdir / "serve.sqlite"
        remove_database(self.path)
        built = Warehouse(backend=SqliteBackend(self.path))
        try:
            start = perf_counter()
            built.load_corpus(corpus)
            self.build_s = perf_counter() - start
        finally:
            built.close()
        self.db_bytes = os.path.getsize(self.path)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--db", str(self.path), "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            env=env, text=True)
        try:
            self.host, self.port = self._await_address()
        except BaseException:
            self.close()
            raise

    def _await_address(self) -> tuple[str, int]:
        deadline = perf_counter() + START_TIMEOUT_S
        while perf_counter() < deadline:
            ready, _, _ = select.select([self.process.stdout], [], [], 0.5)
            if ready:
                line = self.process.stdout.readline()
                if "serving on http://" in line:
                    address = line.split("http://", 1)[1].split()[0]
                    host, port = address.rsplit(":", 1)
                    return host, int(port)
            if self.process.poll() is not None:
                break
        raise RuntimeError("serve subprocess did not announce its address")

    def in_process(self, recorder=None):
        """A second warehouse over the same file (WAL lets it read
        beside the server) and a ``QueryService`` with the defaults
        ``serve`` uses; returns ``(service, timed backend)``."""
        backend = TimedBackend(SqliteBackend(self.path), recorder)
        return QueryService(Warehouse(backend=backend, create=False)), backend

    def counters(self) -> dict[str, float]:
        """The live server's unlabelled counters, via ``GET /metrics``."""
        connection = http.client.HTTPConnection(self.host, self.port,
                                                timeout=60)
        try:
            connection.request("GET", "/metrics")
            snapshot = json.loads(connection.getresponse().read())
        finally:
            connection.close()
        return {entry["name"]: entry["value"]
                for entry in snapshot["counters"] if not entry["labels"]}

    def close(self) -> None:
        """SIGTERM (the server drains and exits 0), then wait."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        remove_database(self.path)


def setup(ctx: Context, timed: bool = False) -> Served:
    """Corpus, database file on disk, server start."""
    return Served(ctx)


def teardown(served: Served) -> None:
    served.close()


def drive(ctx: Context, served: Served, mix, recorder=None, **window):
    """``CLIENTS`` closed-loop callers at once, each on its own
    keep-alive connection and its own seeded sequence; returns
    ``(answers, what each caller recorded, clients)``. Every distinct
    request is sent once first, so the server's compiled-query cache
    holds all of them before anything counts."""
    clients = [Client(served.host, served.port) for _ in range(CLIENTS)]

    def run(index: int):
        execute = clients[index].execute
        if recorder is not None:
            def execute(op, send=execute):
                with recorder.span(f"op.{op.kind}"):
                    return send(op)
        for pool in mix.values():
            for op in pool.ops:
                execute(op)
        answers = Answers()
        sequence = inputs.draw_sequence(
            ctx.rng(f"serve-client-{index}"), mix, SEQUENCE_LENGTH)
        return answers, closed_loop(sequence, execute, answers, **window)

    try:
        with ThreadPoolExecutor(CLIENTS) as pool:
            outcomes = list(pool.map(run, range(CLIENTS)))
    finally:
        for client in clients:
            client.close()
    answers = Answers()
    for client_answers, _ in outcomes:
        answers.merge(client_answers)
    return answers, [done for _, done in outcomes], clients


def measure(ctx: Context, served: Served, seconds: float,
            phases: bool = True) -> Measurement:
    """Two closed-loop clients for ``seconds``; every body must equal
    what ``QueryService.handle`` answers in process for the same
    request. Then a short harvest phase by a second process-side
    warehouse on the same file, the way a site refreshes the database
    it is serving."""
    service, _ = served.in_process()
    try:
        mix = library.canned_mix(service.engine.backend)
        before: dict = {}
        answers, callers, clients = drive(
            ctx, served, mix, seconds=seconds, warmup=seconds / 10,
            warmed=lambda: before or before.update(served.counters()))
        after = served.counters()
        metrics, samples = mix_metrics(callers)
        failed = answers.failed(lambda op: digest(
            service.handle(*request_of(op)).encoded()))
        statuses = sum((client.statuses for client in clients), Counter())
        hits = after["query.cache_hits"] - before["query.cache_hits"]
        misses = after["query.cache_misses"] - before["query.cache_misses"]
        measurement = Measurement(
            metrics=metrics, samples=samples,
            attempted=answers.attempted, failed=failed,
            info={"distinct_operations": len(answers.seen),
                  "cache_hit_ratio": hits / max(1, hits + misses),
                  "response_bytes_p50": median(
                      [size for client in clients for size in client.sizes]),
                  "rejected": statuses[429] + statuses[503],
                  "errors_5xx": sum(
                      count for status, count in statuses.items()
                      if status >= 500 and status != 503)})
        if phases:
            measurement.absorb(harvest.delta_phase(
                ctx, service.engine, served.texts["hlx_enzyme"]))
    finally:
        service.close()
    return measurement


def _round_trips(served: Served, count: int, request, fresh: bool = False
                 ) -> float:
    """Median seconds of ``count`` round trips of one request, on one
    kept-alive connection or on a fresh one each time."""
    seconds = []
    client = Client(served.host, served.port)
    for _ in range(count):
        start = perf_counter()
        if fresh:
            client.close()
            client = Client(served.host, served.port)
        client.send(*request)
        seconds.append(perf_counter() - start)
    client.close()
    return median(seconds)


def traced(ctx: Context, served: Served, untraced: Measurement
           ) -> dict[str, float]:
    """The clients once more with a span per request, then what the
    socket adds: each canned request through ``QueryService.handle``
    with no socket, and straight on the engine, against what the
    clients saw; a request that does no work, to price the transport
    on its own; fresh connections against kept-alive ones."""
    recorder = ctx.recorder
    service, backend = served.in_process(recorder)
    nowhere = ("GET", "/nowhere", b"")
    try:
        mix = library.canned_mix(service.engine.backend)
        _, callers, _ = drive(
            ctx, served, mix, recorder=recorder,
            max_ops=ctx.scale.traced_ops // CLIENTS)
        engine = service.engine

        def direct(op: inputs.Op) -> None:
            # what the handler asks of the engine, without the handler
            if op.kind == "keyword":
                engine.keyword_search(op.arg[0], source=op.arg[1])
            elif op.kind == "document":
                serialize(engine.fetch_document(op.arg))
            else:
                engine.query(op.arg)

        per_kind = max(10, ctx.scale.traced_ops // 6)
        handle_ms, engine_ms = {}, {}
        for kind, pool in mix.items():
            handled, engined = [], []
            for index in range(per_kind):
                op = pool.ops[index % len(pool.ops)]
                with recorder.span("service.handle") as span:
                    service.handle(*request_of(op)).encoded()
                handled.append(recorder.duration(span))
                with recorder.span(f"engine.{kind}") as span:
                    direct(op)
                engined.append(recorder.duration(span))
            handle_ms[kind] = median(handled) * 1e3
            engine_ms[kind] = median(engined) * 1e3
        relational = relational_metrics([backend])
        with recorder.span("shredding.reconstruct") as span:
            for op in mix["document"].ops:
                service.engine.fetch_document(op.arg)
        reconstruct_s = recorder.duration(span)
        idle = []
        for _ in range(per_kind):
            with recorder.span("service.handle") as span:
                service.handle(*nowhere).encoded()
            idle.append(recorder.duration(span))
    finally:
        service.close()

    keyword = request_of(mix["keyword"].ops[0])
    kept_s = _round_trips(served, per_kind, keyword)
    fresh_s = _round_trips(served, per_kind, keyword, fresh=True)
    floor_ms = (_round_trips(served, per_kind, nowhere) - median(idle)) * 1e3

    seen = untraced.metrics
    shares = {kind: pool.share for kind, pool in mix.items()}
    handle_mix_ms = sum(shares[kind] * handle_ms[kind] for kind in shares)
    client_mix_ms = sum(shares[kind] * seen[f"{kind}_p50_ms"]
                        for kind in shares)
    return {
        "traced_headline": sum(throughput(done) for done in callers),
        # handler time is measured here and the transport's floor on a
        # request that does no work; whatever else a real response
        # costs on the wire is what stays unattributed
        "trace.attributed_share": (handle_mix_ms + floor_ms) / client_mix_ms,
        "service.handle_keyword_ms": handle_ms["keyword"],
        "service.handle_subtree_ms": handle_ms["subtree"],
        "service.handle_join_ms": handle_ms["join"],
        "service.handle_document_ms": handle_ms["document"],
        "service.self_ms": sum(shares[kind] * (handle_ms[kind]
                                               - engine_ms[kind])
                               for kind in shares),
        "service.transport_keyword_ms":
            seen["keyword_p50_ms"] - handle_ms["keyword"],
        "service.transport_join_ms":
            seen["join_p50_ms"] - handle_ms["join"],
        "service.transport_floor_ms": floor_ms,
        "service.connect_ms": (fresh_s - kept_s) * 1e3,
        "service.response_bytes_p50": untraced.info["response_bytes_p50"],
        "service.rejected": untraced.info["rejected"],
        "service.errors_5xx": untraced.info["errors_5xx"],
        "translator.cache_hit_ratio": untraced.info["cache_hit_ratio"],
        "shredding.reconstruct_s": reconstruct_s,
        **relational,
    }
