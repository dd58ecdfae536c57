"""``xomatiq subscribe`` end to end: a standing query registered over
HTTP on a live service, one delta tailed after a harvest, and the
subscription removed on exit."""

from __future__ import annotations

import json
import socket
import threading
import time
import urllib.request

import pytest

from repro.cli import main
from repro.datahounds.transport import DirectoryRepository
from repro.engine import Warehouse
from repro.relational.sqlite_backend import SqliteBackend
from repro.service import QueryService, ServiceConfig, ServiceServer
from repro.synth import build_corpus

QUERY = ('FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme '
         'RETURN $a//enzyme_id')


def _call(url: str, method: str = "GET", body: dict | None = None):
    data = json.dumps(body).encode() if body is not None else None
    request = urllib.request.Request(url, data=data, method=method)
    with urllib.request.urlopen(request, timeout=30) as response:
        return json.loads(response.read().decode("utf-8"))


@pytest.fixture
def served(tmp_path):
    warehouse = Warehouse(backend=SqliteBackend(str(tmp_path / "wh.sqlite")))
    server = ServiceServer(
        QueryService(warehouse, config=ServiceConfig(port=0)))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server, warehouse
    server.close()
    thread.join(timeout=10)


def test_subscribe_prints_one_delta_and_unsubscribes(served, tmp_path,
                                                     capsys):
    server, warehouse = served
    mirror = tmp_path / "mirror"
    build_corpus(seed=37, enzyme_count=12, embl_count=4,
                 sprot_count=4).publish_to(DirectoryRepository(mirror), "r1")
    outcome = {}
    tail = threading.Thread(target=lambda: outcome.update(code=main([
        "subscribe", QUERY, "--url", server.url, "--max-events", "1",
        "--timeout", "2"])))
    tail.start()
    deadline = time.monotonic() + 20
    while not _call(server.url + "/subscriptions")["count"]:
        assert time.monotonic() < deadline, "subscription never registered"
        time.sleep(0.05)
    report = _call(server.url + "/harvest", "POST",
                   {"repo": str(mirror), "sources": ["hlx_enzyme"]})
    assert report["ok"]
    tail.join(timeout=30)
    assert not tail.is_alive() and outcome["code"] == 0
    rows = len(warehouse.query(QUERY))
    out = capsys.readouterr().out
    assert f"#1 hlx_enzyme r1 [full] +{rows} -0 rows={rows}" in out
    assert "unsubscribed" in out
    assert _call(server.url + "/subscriptions")["count"] == 0


def test_unreachable_url_exits_1(capsys):
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    assert main(["subscribe", QUERY, "--url",
                 f"http://127.0.0.1:{port}", "--timeout", "1"]) == 1
    assert "cannot reach service" in capsys.readouterr().err
