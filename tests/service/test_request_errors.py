"""Malformed request framing gets a named 4xx, never a 500.

A raw socket sends each request, because ``urllib`` would refuse to
build most of them.  The server must answer with the right status and a
JSON ``error`` that names the problem, and keep serving afterwards.  A
client that stalls mid-request is dropped after a fixed deadline, which
never cuts an event stream whose request was read in time.
"""

from __future__ import annotations

import json
import socket
import time

import pytest

from repro.service.app import _MAX_HEADERS, _REQUEST_DEADLINE_S
from tests.service.test_service_e2e import _start_server

pytestmark = pytest.mark.timeout(120)


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    handle = _start_server(tmp_path_factory.mktemp("request-errors"))
    yield handle
    handle.stop()


def _raw_request(address: str, head: str) -> tuple[int, dict]:
    """Send request headers only; return (status, JSON body) of the reply."""
    host, port = address.rsplit(":", 1)
    with socket.create_connection((host, int(port)), timeout=30) as sock:
        sock.sendall(head.encode("latin-1"))
        reply = b""
        while chunk := sock.recv(65536):
            reply += chunk
    status_line, _, rest = reply.partition(b"\r\n")
    _, _, body = rest.partition(b"\r\n\r\n")
    return int(status_line.split()[1]), json.loads(body)


def _post_jobs(length: str) -> str:
    return (
        "POST /v1/jobs HTTP/1.1\r\n"
        "Host: localhost\r\n"
        f"Content-Length: {length}\r\n"
        "\r\n"
    )


class TestContentLength:
    @pytest.mark.parametrize("length", ["abc", "12x", "²"])
    def test_non_numeric_is_400(self, server, length):
        status, body = _raw_request(server.address, _post_jobs(length))
        assert status == 400
        assert "invalid Content-Length" in body["error"]

    def test_negative_is_400(self, server):
        status, body = _raw_request(server.address, _post_jobs("-5"))
        assert status == 400
        assert "invalid Content-Length" in body["error"]

    def test_oversize_is_413(self, server):
        status, body = _raw_request(server.address, _post_jobs(str(1 << 30)))
        assert status == 413
        assert "too large" in body["error"]

    def test_server_keeps_serving(self, server):
        _raw_request(server.address, _post_jobs("abc"))
        status, body = server.client.json("GET", "/healthz")
        assert status == 200 and body["ok"] is True


def _get_healthz(n_headers: int) -> str:
    pad = "".join(f"X-Pad-{i}: {i}\r\n" for i in range(n_headers - 1))
    return f"GET /healthz HTTP/1.1\r\nHost: localhost\r\n{pad}\r\n"


def _connect(address: str, timeout: float) -> socket.socket:
    host, port = address.rsplit(":", 1)
    return socket.create_connection((host, int(port)), timeout=timeout)


class TestHeaderCount:
    def test_over_the_limit_is_431(self, server):
        status, body = _raw_request(server.address, _get_healthz(_MAX_HEADERS + 1))
        assert status == 431
        assert "too many header lines" in body["error"]

    def test_at_the_limit_is_served(self, server):
        status, body = _raw_request(server.address, _get_healthz(_MAX_HEADERS))
        assert status == 200 and body["ok"] is True


class TestRequestDeadline:
    def test_stalled_request_line_is_dropped(self, server):
        with _connect(server.address, timeout=0.5) as sock:
            sock.sendall(b"GET /hea")  # half a request line, then silence
            start = time.monotonic()
            answered = 0
            while True:
                # Other clients are served while the stalled one waits.
                status, body = server.client.json("GET", "/healthz")
                assert status == 200 and body["ok"] is True
                answered += 1
                try:
                    data = sock.recv(1)
                except TimeoutError:
                    elapsed = time.monotonic() - start
                    assert elapsed < _REQUEST_DEADLINE_S + 5, "stalled client kept"
                    continue
                assert data == b"", "a stalled client gets no response"
                break
            elapsed = time.monotonic() - start
        assert elapsed < _REQUEST_DEADLINE_S + 5
        assert answered > 1

    def test_event_stream_outlives_the_deadline(self, server):
        # A sweep that runs far longer than the deadline: its event
        # stream must stay open until the job ends.  (With 256 detect
        # cycles it took about 9 s on a 2-vCPU VM, close enough to the
        # watch window below to end inside it on a faster run.)
        job = server.client.submit({
            "kind": "campaign", "design": "MULT6", "device": "S12",
            "flags": {
                "stride": 1, "jobs": 1, "detect_cycles": 4096,
                "no_collapse": True, "no_retire": True,
            },
        })["job"]
        try:
            with _connect(server.address, timeout=0.5) as sock:
                sock.sendall(
                    f"GET /v1/jobs/{job['id']}/events HTTP/1.1\r\n"
                    "Host: localhost\r\n\r\n".encode("latin-1")
                )
                start = time.monotonic()
                received = b""
                while time.monotonic() - start < _REQUEST_DEADLINE_S + 1.5:
                    try:
                        chunk = sock.recv(65536)
                    except TimeoutError:
                        continue
                    assert chunk, "event stream closed while the job ran"
                    received += chunk
                assert received.startswith(b"HTTP/1.1 200")
                assert b"event: done" not in received
        finally:
            server.client.json("POST", f"/v1/jobs/{job['id']}/cancel")
