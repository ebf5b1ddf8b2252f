"""The HTTP/SSE view server (ISSUE 10 / DESIGN.md §14).

The acceptance property: N concurrent readers attaching *mid-grid* —
each receiving one full snapshot and then version-filtered deltas —
all reconstruct exactly the producer's final snapshot, byte for byte,
regardless of when they connected.
"""

import http.client
import json
import threading
import time

import pytest

from repro.experiments.aggregate import ViewAggregator, canonical_json
from repro.experiments.plan import build_plan
from repro.experiments.scheduler import run_plan
from repro.serve import ViewServer
from repro.settings import SettingsError, current

PLAN_KW = dict(configurations=("baseline", "current"), depths=(20, 40),
               benchmarks=("li",), scale=0.01, warmup=50)


def small_plan():
    return build_plan(**PLAN_KW)


@pytest.fixture()
def served():
    """An aggregator + running server on an ephemeral port."""
    aggregator = ViewAggregator()
    server = ViewServer(aggregator, port=0)
    server.start()
    try:
        yield aggregator, server
    finally:
        server.stop()


def get_json(server, path):
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


class SSEReader(threading.Thread):
    """One /events client: applies the SSE contract until done."""

    def __init__(self, port):
        super().__init__(daemon=True)
        self.port = port
        self.views = None
        self.version = None
        self.done = False
        self.versions = []
        self.error = None

    def run(self):
        try:
            self._consume()
        except Exception as exc:  # surfaced by the main thread
            self.error = exc

    def _consume(self):
        conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=120)
        try:
            conn.request("GET", "/events")
            response = conn.getresponse()
            assert response.status == 200
            event = None
            while not self.done:
                line = response.readline()
                if not line:
                    raise AssertionError("stream closed before done")
                line = line.decode().rstrip("\r\n")
                if line.startswith("event: "):
                    event = line[len("event: "):]
                elif line.startswith("data: "):
                    self._apply(event, json.loads(line[len("data: "):]))
        finally:
            conn.close()

    def _apply(self, event, payload):
        if event == "snapshot":
            self.views = dict(payload["views"])
            self.version = payload["version"]
            self.done = payload["done"]
        elif event == "delta":
            assert self.views is not None, "delta before snapshot"
            assert payload["version"] > self.version, "stale delta leaked"
            self.versions.append(payload["version"])
            self.version = payload["version"]
            self.views.update(payload["views"])
            self.done = payload["done"]


class TestEndpoints:
    def test_ephemeral_port_and_health(self, served):
        aggregator, server = served
        assert server.port != 0
        status, body = get_json(server, "/healthz")
        assert status == 200
        assert body["ok"] is True and body["done"] is False

    def test_views_roundtrip(self, served):
        aggregator, server = served
        status, body = get_json(server, "/views")
        assert status == 200
        snapshot = aggregator.snapshot()
        assert canonical_json(body) == snapshot.to_json()
        status, one = get_json(server, "/views/status")
        assert status == 200
        assert one["view"] == snapshot.views["status"]

    def test_unknown_view_404(self, served):
        _, server = served
        status, body = get_json(server, "/views/nope")
        assert status == 404
        assert "status" in body["views"]
        status, _ = get_json(server, "/nowhere")
        assert status == 404

    def test_non_get_405(self, served):
        _, server = served
        conn = http.client.HTTPConnection("127.0.0.1", served[1].port,
                                          timeout=30)
        try:
            conn.request("POST", "/views", body="{}")
            assert conn.getresponse().status == 405
        finally:
            conn.close()

    def test_default_port_knob(self, monkeypatch):
        monkeypatch.delenv("REPRO_SERVE_PORT", raising=False)
        assert current().serve_port == 8765
        monkeypatch.setenv("REPRO_SERVE_PORT", "0")
        assert current().serve_port == 0
        assert ViewServer(ViewAggregator()).port == 0
        monkeypatch.setenv("REPRO_SERVE_PORT", "nope")
        with pytest.raises(SettingsError, match="REPRO_SERVE_PORT"):
            current()


class TestConcurrentReaders:
    def test_midgrid_readers_converge_identically(self, served):
        """Five readers join at different moments of a live grid; every
        one reconstructs the producer's final snapshot exactly, with
        strictly increasing versions along the way."""
        aggregator, server = served
        early = [SSEReader(server.port) for _ in range(3)]
        for reader in early:
            reader.start()
        grid_error = []

        def run_grid():
            try:
                run_plan(small_plan(), jobs=1, use_cache=False,
                         backend="serial", sink=aggregator)
            except Exception as exc:
                grid_error.append(exc)
            finally:
                aggregator.mark_done()

        grid = threading.Thread(target=run_grid, daemon=True)
        grid.start()
        while aggregator.snapshot().views["status"]["done"] == 0 \
                and grid.is_alive():
            time.sleep(0.001)
        late = [SSEReader(server.port) for _ in range(2)]  # mid-grid
        for reader in late:
            reader.start()
        grid.join(timeout=300)
        assert not grid.is_alive() and not grid_error
        final = aggregator.snapshot()
        for reader in early + late:
            reader.join(timeout=60)
            assert not reader.is_alive()
            assert reader.error is None
            assert reader.done is True
            assert reader.version == final.version
            assert canonical_json(reader.views) \
                == canonical_json(dict(final.views))
            assert reader.versions == sorted(set(reader.versions))

    def test_reader_after_done_gets_final_snapshot(self, served):
        aggregator, server = served
        results = run_plan(small_plan(), jobs=1, use_cache=False,
                           backend="serial", sink=aggregator)
        aggregator.mark_done()
        reader = SSEReader(server.port)
        reader.start()
        reader.join(timeout=60)
        assert reader.error is None and reader.done is True
        assert canonical_json(reader.views) \
            == canonical_json(dict(aggregator.snapshot().views))
        assert len(results) == len(small_plan())


class TestAutoServe:
    def test_repro_serve_env_attaches_for_the_run(self, monkeypatch):
        """REPRO_SERVE=1 serves the grid for the duration of run_plan
        (ephemeral port) and tears down cleanly; results unchanged."""
        monkeypatch.setenv("REPRO_SERVE", "1")
        monkeypatch.setenv("REPRO_SERVE_PORT", "0")
        results = run_plan(small_plan(), jobs=1, use_cache=False,
                           backend="serial")
        assert len(results) == len(small_plan())
        leftovers = [t for t in threading.enumerate()
                     if t.name == "repro-serve"]
        for thread in leftovers:
            thread.join(timeout=10)
        assert not any(t.is_alive() for t in leftovers)
