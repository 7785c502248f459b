"""FIT service over real sockets: client, metrics, shutdown."""

from __future__ import annotations

import asyncio
import json
import socket
import threading

import pytest

from repro.chaos import trials
from repro.obs import core as obs
from repro.obs.metrics import MetricsRegistry
from repro.runtime.budget import RetryPolicy
from repro.service import (
    AdmissionController,
    FitService,
    QueryExecutor,
    ServiceClient,
    ServiceError,
)
from repro.transport import api as transport_api

pytestmark = pytest.mark.usefixtures("no_fork_while_threaded")


def _no_sleep(_delay_s: float) -> None:
    """Backoff sleeper for tests (never waits)."""


class _LiveServer:
    """A FitService bound to an ephemeral port on a daemon thread."""

    def __init__(self, service: FitService) -> None:
        self.service = service
        self.loop = asyncio.new_event_loop()
        self.port = 0
        self._server = None
        started = threading.Event()

        async def boot():
            self._server = await asyncio.start_server(
                service.handle_connection, "127.0.0.1", 0
            )
            self.port = self._server.sockets[0].getsockname()[1]
            started.set()

        async def finish_handlers():
            handlers = asyncio.all_tasks() - {asyncio.current_task()}
            await asyncio.gather(*handlers, return_exceptions=True)

        def run():
            asyncio.set_event_loop(self.loop)
            self.loop.run_until_complete(boot())
            self.loop.run_forever()
            # stop() cancelled the connection handlers: let each one
            # close its transport before the loop itself is closed.
            self.loop.run_until_complete(finish_handlers())
            self.loop.run_until_complete(
                self.loop.shutdown_default_executor()
            )
            self.loop.close()

        self.thread = threading.Thread(target=run, daemon=True)
        self.thread.start()
        assert started.wait(10.0)

    def stop(self) -> None:
        def shutdown():
            self._server.close()
            for task in asyncio.all_tasks(self.loop):
                task.cancel()
            self.loop.stop()

        self.loop.call_soon_threadsafe(shutdown)
        self.thread.join(timeout=10.0)
        assert not self.thread.is_alive()
        self.service.close()


@pytest.fixture
def live():
    service = FitService(
        executor=QueryExecutor(sleep=_no_sleep),
        admission=AdmissionController(max_inflight=256),
        plans={
            "leadroom": {
                "kind": "flux",
                "params": {"site": "leadville", "room": True},
            }
        },
    )
    registry = MetricsRegistry()
    with obs.observing(obs.Observer(registry=registry)):
        server = _LiveServer(service)
        try:
            yield server, registry
        finally:
            server.stop()


def test_client_query_roundtrip(live):
    server, _registry = live
    client = ServiceClient("127.0.0.1", server.port, timeout_s=30.0)
    try:
        response = client.query(
            "fit", {"device": "K20", "site": "nyc", "room": True}
        )
        assert response["ok"]
        assert response["result"]["total_fit"] > 0
        # Ids increment per request on one connection.
        again = client.query("flux", {"site": "isis"})
        assert again["id"] != response["id"]
    finally:
        client.close()


def test_client_surfaces_structured_errors(live):
    server, _registry = live
    client = ServiceClient("127.0.0.1", server.port, timeout_s=30.0)
    try:
        with pytest.raises(ServiceError) as excinfo:
            client.query("fit", {"device": "not-a-device"})
        assert excinfo.value.code == "bad-request"
        # The connection stays usable after a structured error.
        assert client.query("flux", {})["ok"]
    finally:
        client.close()


def test_client_uses_named_plans(live):
    server, _registry = live
    client = ServiceClient("127.0.0.1", server.port, timeout_s=30.0)
    try:
        response = client.query("", plan="leadroom")
        assert response["ok"]
        assert "Leadville" in response["result"]["scenario"]
    finally:
        client.close()


def test_client_retries_transport_failures():
    # No server on this port: every connect fails, the policy's
    # attempts are consumed, and the last failure propagates.
    sleeps = []
    client = ServiceClient(
        "127.0.0.1",
        1,
        timeout_s=0.2,
        retry=RetryPolicy(max_attempts=3),
        sleep=sleeps.append,
    )
    with pytest.raises(OSError):
        client.request({"id": "x", "kind": "flux", "params": {}})
    assert len(sleeps) == 2


def test_metrics_endpoint_scrapes_prometheus_text(live):
    server, _registry = live
    client = ServiceClient("127.0.0.1", server.port, timeout_s=30.0)
    try:
        client.query("flux", {})
        text = client.metrics()
    finally:
        client.close()
    assert "# TYPE repro_service_requests_total counter" in text
    assert "repro_service_requests_total 1" in text
    assert 'span="service.request"' in text


def _http_get(port: int, target: str) -> bytes:
    """The raw reply to one HTTP/1.0 GET on the service port."""
    with socket.create_connection(
        ("127.0.0.1", port), timeout=10.0
    ) as sock:
        sock.sendall(f"GET {target} HTTP/1.0\r\n\r\n".encode("ascii"))
        raw = b""
        while True:
            chunk = sock.recv(4096)
            if not chunk:
                return raw
            raw += chunk


def _healthz(port: int) -> dict:
    raw = _http_get(port, "/healthz")
    assert raw.startswith(b"HTTP/1.0 200")
    return json.loads(raw.split(b"\r\n\r\n", 1)[1])


def test_healthz_reports_where_live_queries_run(live, monkeypatch):
    server, _registry = live
    assert _healthz(server.port) == {"pool": "in-process", "status": "ok"}
    monkeypatch.setattr(server.service.executor, "pool_state", lambda: "lost")
    assert _healthz(server.port) == {"pool": "lost", "status": "ok"}


def test_http_unknown_route_is_404():
    service = FitService(
        executor=QueryExecutor(sleep=_no_sleep),
        admission=AdmissionController(max_inflight=256),
    )
    server = _LiveServer(service)
    try:
        assert _http_get(server.port, "/nope").startswith(b"HTTP/1.0 404")
    finally:
        server.stop()


def test_inline_answers_overtake_a_live_run_in_flight(tmp_path):
    # A live run holds the worker thread; fit and surrogate answers on
    # a second connection are computed on the loop meanwhile.  Live
    # work routed onto the loop would block them until the release.
    trials.make_surrogate_root(tmp_path)
    before = transport_api.default_store()
    transport_api.configure(str(tmp_path))
    service = FitService(
        executor=QueryExecutor(sleep=_no_sleep),
        admission=AdmissionController(max_inflight=256),
    )
    started, release = threading.Event(), threading.Event()
    execute = service.executor.execute

    def held_live_execute(query):
        if service.executor.needs_engine(query):
            started.set()
            assert release.wait(30.0)
        return execute(query)

    service.executor.execute = held_live_execute
    server = _LiveServer(service)
    live = {}

    def live_client():
        client = ServiceClient("127.0.0.1", server.port, timeout_s=60.0)
        try:
            live["body"] = client.query(
                "transmission", {"shield": "water", "n_neutrons": 256}
            )
        finally:
            client.close()

    thread = threading.Thread(target=live_client)
    thread.start()
    try:
        assert started.wait(30.0)
        client = ServiceClient(
            "127.0.0.1",
            server.port,
            timeout_s=10.0,
            retry=RetryPolicy(max_attempts=1),
        )
        try:
            fit = client.query("fit", {"device": "K20", "site": "nyc"})
            surrogate = client.query(
                "transmission",
                {
                    "shield": "cadmium",
                    "thickness_cm": trials.SURROGATE_THICKNESS_CM,
                    "engine": "auto",
                },
            )
        finally:
            client.close()
        assert "body" not in live
    finally:
        release.set()
        thread.join(60.0)
        server.stop()
        transport_api.set_default_store(before)
    assert not thread.is_alive()
    assert fit["ok"] and fit["result"]["total_fit"] > 0
    assert surrogate["provenance"]["engine"] == "surrogate"
    assert live["body"]["provenance"]["engine"] == "batch"
