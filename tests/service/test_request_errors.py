"""Malformed request framing gets a named 4xx, never a 500.

A raw socket sends each request, because ``urllib`` would refuse to
build most of them.  The server must answer with the right status and a
JSON ``error`` that names the problem, and keep serving afterwards.
"""

from __future__ import annotations

import json
import socket

import pytest

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
