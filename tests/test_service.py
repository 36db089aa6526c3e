"""The shared service skeleton, exercised through both apps.

``repro-server`` and ``repro-gateway`` run one connection loop, one
dispatch path and one lifecycle (:mod:`repro.server.service`).  Every
test here runs once per app over real sockets, so a skeleton
regression shows up in both.
"""

import contextlib
import http.client
import json
import logging
import socket

import pytest

from repro.api import Problem
from repro.cluster import GatewayConfig, serve_gateway_in_thread
from repro.errors import ServerError
from repro.server import Client, ServerConfig, serve_in_thread

APPS = ("server", "gateway")


@contextlib.contextmanager
def hosted(app, **overrides):
    """A thread-hosted ``app`` whose config takes ``overrides``; the
    gateway fronts one live backend."""
    if app == "server":
        with serve_in_thread(ServerConfig(port=0, **overrides)) as handle:
            yield handle
        return
    with serve_in_thread(ServerConfig(port=0)) as backend:
        config = GatewayConfig(
            backends=(f"127.0.0.1:{backend.port}",), port=0, **overrides
        )
        with serve_gateway_in_thread(config) as handle:
            yield handle


@pytest.mark.parametrize("app", APPS)
def test_stalled_connection_is_dropped_by_read_timeout(app):
    """A peer that opens a connection and never finishes a request is
    dropped, not left pinning its connection task forever."""
    with hosted(app, read_timeout_seconds=0.2) as handle:
        stalled = socket.create_connection(("127.0.0.1", handle.port), timeout=10)
        stalled.sendall(b"POST /v1/solve HTTP/1.1\r\nContent-Length: 100\r\n\r\n")
        assert stalled.recv(1024) == b""  # the app closed on us
        stalled.close()
        with Client(handle.base_url) as client:
            assert client.health()["status"] == "ok"


@pytest.mark.parametrize("app", APPS)
def test_error_envelopes_carry_the_trace_id(app):
    with hosted(app) as handle, Client(handle.base_url) as client:
        with pytest.raises(ServerError) as excinfo:
            client.request("GET", "/v1/problems/no-such-problem")
    error = excinfo.value
    assert error.status == 404
    assert error.trace_id is not None
    assert error.payload["trace_id"] == error.trace_id
    assert f"[trace {error.trace_id}]" in str(error)


@pytest.mark.parametrize("app", APPS)
def test_oversized_body_gets_413_and_a_closed_connection(app):
    """The body cap holds on the live connection loop: a 413 envelope,
    the connection closed, and the app still serving afterwards."""
    with hosted(app, max_body_bytes=64) as handle:
        conn = http.client.HTTPConnection("127.0.0.1", handle.port, timeout=10)
        try:
            conn.request("POST", "/v1/problems", body=b"[" + b"0," * 100 + b"0]")
            response = conn.getresponse()
            payload = json.loads(response.read())
            assert response.status == 413
            assert response.will_close
            assert "64-byte limit" in payload["error"]
        finally:
            conn.close()
        with Client(handle.base_url) as client:
            assert client.health()["status"] == "ok"
            statuses = client.metrics()["http"]["responses_by_status"]
            assert statuses["413"] == 1


@pytest.mark.parametrize("path", ["/v1/problems", "/v1/solve", "/v1/jobs"])
@pytest.mark.parametrize("app", APPS)
def test_a_nan_token_gets_a_400_envelope(app, path):
    """A non-finite coordinate is a client error on every ingest route,
    not a solver crash (500)."""
    payload = (
        Problem.builder()
        .add_objects([(0.5, 0.6), (0.2, 0.7)])
        .add_functions([(0.8, 0.2)])
        .build()
        .to_dict()
    )
    text = json.dumps(payload if path == "/v1/problems" else {"problem": payload})
    body = text.replace("0.6", "NaN", 1).encode("utf-8")
    assert b"NaN" in body
    with hosted(app) as handle:
        conn = http.client.HTTPConnection("127.0.0.1", handle.port, timeout=10)
        try:
            conn.request("POST", path, body=body)
            response = conn.getresponse()
            envelope = json.loads(response.read())
        finally:
            conn.close()
    assert response.status == 400
    assert envelope["type"] == "InvalidProblemError"
    assert "finite" in envelope["error"]


@pytest.mark.parametrize("app", APPS)
def test_close_with_an_open_keep_alive_connection_is_quiet(app, caplog, capfd):
    """Shutting down cancels idle kept-alive connections; that must not
    log a ``CancelledError`` traceback from asyncio's stream callback."""
    caplog.set_level(logging.INFO, logger="asyncio")
    with hosted(app) as handle:
        conn = http.client.HTTPConnection("127.0.0.1", handle.port, timeout=10)
        try:
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            response.read()
            assert response.status == 200 and not response.will_close
            handle.close()
        finally:
            conn.close()
    assert [r for r in caplog.records if r.name.startswith("asyncio")] == []
    assert capfd.readouterr().err == ""
