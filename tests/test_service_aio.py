"""End-to-end tests for the asyncio HTTP front-end.

The async server must present exactly the same /v1 surface as the
threaded one (it routes through the shared router), while handling
coalesced solves natively on the event loop.  These tests exercise the
transport itself -- keep-alive, pipelined requests on one connection,
malformed request lines, clients that disconnect mid-wait -- plus the
parity of its responses with the threaded server's.
"""

import json
import re
import socket
import threading
import urllib.error
import urllib.request

import pytest

from repro.service import (
    ModelService,
    SolveCoalescer,
    start_async_server,
    start_server,
)


@pytest.fixture()
def handle():
    service = ModelService.with_coalescer()
    handle = start_async_server(service)
    yield handle
    handle.shutdown()
    service.close()


def _get(url, path):
    try:
        with urllib.request.urlopen(url + path, timeout=10) as resp:
            return resp.status, dict(resp.headers), resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), exc.read()


def _post(url, path, body):
    request = urllib.request.Request(
        url + path, data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=30) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


def _read_response(sock) -> tuple[bytes, bytes]:
    """Read one HTTP response (head, body) off a keep-alive socket."""
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = sock.recv(65536)
        assert chunk, "server closed mid-response"
        data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    length = int(re.search(rb"Content-Length: (\d+)", head).group(1))
    while len(body) < length:
        chunk = sock.recv(65536)
        assert chunk, "server closed mid-body"
        body += chunk
    return head, body


def _solve_in_one_iteration(handle, bodies):
    """POST each body on its own open connection while the event loop
    is blocked, so every request's bytes are there when the loop next
    polls its sockets: they are read in one loop iteration."""
    address = (handle.server.host, handle.server.port)
    socks = [socket.create_connection(address, timeout=30)
             for _ in bodies]
    try:
        for sock in socks:  # accepted and idle before the loop blocks
            sock.sendall(b"GET /v1/healthz HTTP/1.1\r\n\r\n")
            _read_response(sock)
        blocked, release = threading.Event(), threading.Event()

        def block():
            blocked.set()
            release.wait(30)

        handle._loop.call_soon_threadsafe(block)
        assert blocked.wait(30)
        for sock, body in zip(socks, bodies):
            data = json.dumps(body).encode()
            sock.sendall(b"POST /v1/solve HTTP/1.1\r\n"
                         b"Content-Length: %d\r\n\r\n%s"
                         % (len(data), data))
        release.set()
        return [_read_response(sock) for sock in socks]
    finally:
        for sock in socks:
            sock.close()


def _raw_request(handle, payload: bytes) -> bytes:
    """Send raw bytes on a fresh socket; read until the server closes."""
    with socket.create_connection(
            (handle.server.host, handle.server.port), timeout=10) as sock:
        sock.sendall(payload)
        sock.shutdown(socket.SHUT_WR)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


class TestRoutes:
    def test_healthz(self, handle):
        status, _, body = _get(handle.url, "/v1/healthz")
        assert status == 200
        assert json.loads(body)["status"] == "ok"

    def test_solve_is_coalesced(self, handle):
        status, body = _post(handle.url, "/v1/solve",
                             {"protocol": "berkeley", "n": [4, 10]})
        assert status == 200
        payload = json.loads(body)
        assert payload["summary"]["mode"] == "coalesced"
        assert [r["n_processors"] for r in payload["results"]] == [4, 10]
        assert handle.service.coalescer.stats()["cells"] == 2

    def test_explicit_engine_is_coalesced_and_deprecated(self, handle):
        """The deprecated ``engine`` field no longer bypasses the
        coalescer; the answer carries the RFC 8594 headers."""
        request = urllib.request.Request(
            handle.url + "/v1/solve",
            data=json.dumps({"protocol": "berkeley", "n": 6,
                             "engine": "scalar"}).encode(),
            headers={"Content-Type": "application/json"})
        with urllib.request.urlopen(request, timeout=30) as resp:
            status, headers = resp.status, resp.headers
            payload = json.loads(resp.read())
        assert status == 200
        assert payload["summary"]["mode"] == "coalesced"
        assert handle.service.coalescer.stats()["cells"] == 1
        assert headers["Deprecation"] == "true"
        assert headers["Sunset"].endswith(" GMT")

    def test_solve_error_envelope(self, handle):
        status, body = _post(handle.url, "/v1/solve", {"n": 4})
        assert status == 400
        assert json.loads(body)["error"]["code"] == "missing-field"

    def test_grid_runs_in_executor(self, handle):
        status, body = _post(handle.url, "/v1/grid",
                             {"protocols": ["berkeley"], "sharing": ["5"],
                              "n": [2, 4]})
        assert status == 200
        assert len(json.loads(body)["cells"]) == 2

    def test_metrics_exposition(self, handle):
        _post(handle.url, "/v1/solve", {"protocol": "berkeley", "n": 4})
        status, headers, body = _get(handle.url, "/v1/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert b"repro_coalesce_flushes_total" in body

    def test_legacy_endpoints_are_gone(self, handle):
        status, headers, body = _get(handle.url, "/healthz")
        assert status == 410
        error = json.loads(body)["error"]
        assert error["code"] == "gone"
        assert error["detail"]["successor"] == "/v1/healthz"
        assert "successor-version" in headers["Link"]

    def test_unknown_path_404(self, handle):
        status, _, body = _get(handle.url, "/v1/nope")
        assert status == 404
        assert json.loads(body)["error"]["code"] == "not-found"

    def test_method_not_allowed_405(self, handle):
        status, headers, _ = _get(handle.url, "/v1/solve")
        assert status == 405
        assert headers["Allow"] == "POST"


class TestTransport:
    def test_keep_alive_serves_pipelined_requests(self, handle):
        request = (f"GET /v1/healthz HTTP/1.1\r\n"
                   f"Host: {handle.server.host}\r\n\r\n").encode()
        raw = _raw_request(handle, request * 2)
        assert raw.count(b"HTTP/1.1 200 OK") == 2
        assert raw.count(b'"status":"ok"') == 2

    def test_connection_close_honoured(self, handle):
        request = (f"GET /v1/healthz HTTP/1.1\r\n"
                   f"Host: {handle.server.host}\r\n"
                   f"Connection: close\r\n\r\n").encode()
        raw = _raw_request(handle, request)
        assert b"Connection: close" in raw

    def test_malformed_request_line_400(self, handle):
        raw = _raw_request(handle, b"NONSENSE\r\n\r\n")
        assert raw.startswith(b"HTTP/1.1 400 ")

    def test_oversized_request_line_400(self, handle):
        raw = _raw_request(
            handle, b"GET /" + b"a" * 20_000 + b" HTTP/1.1\r\n\r\n")
        assert raw.startswith(b"HTTP/1.1 400 ")

    def test_oversized_header_line_400(self, handle):
        request = (b"GET /v1/healthz HTTP/1.1\r\n"
                   b"X-Big: " + b"a" * 20_000 + b"\r\n\r\n")
        raw = _raw_request(handle, request)
        assert raw.startswith(b"HTTP/1.1 400 ")

    def test_too_many_headers_400(self, handle):
        headers = b"".join(b"X-H%d: 1\r\n" % i for i in range(150))
        request = b"GET /v1/healthz HTTP/1.1\r\n" + headers + b"\r\n"
        raw = _raw_request(handle, request)
        assert raw.startswith(b"HTTP/1.1 400 ")

    def test_truncated_body_400(self, handle):
        request = (b"POST /v1/solve HTTP/1.1\r\n"
                   b"Content-Length: 500\r\n\r\n"
                   b'{"protocol":')
        raw = _raw_request(handle, request)
        assert raw.startswith(b"HTTP/1.1 400 ")

    def test_oversized_body_413(self, handle):
        request = (b"POST /v1/solve HTTP/1.1\r\n"
                   b"Content-Length: 9000000\r\n\r\n")
        raw = _raw_request(handle, request)
        assert raw.startswith(b"HTTP/1.1 413 ")

    def test_disconnect_mid_wait_leaves_siblings_ok(self, handle):
        """A client that vanishes before its solve lands must not
        break a concurrent client sharing the same batch window."""
        body = json.dumps({"protocol": "synapse", "n": 16}).encode()
        request = (b"POST /v1/solve HTTP/1.1\r\n"
                   b"Content-Type: application/json\r\n"
                   b"Content-Length: %d\r\n\r\n%s" % (len(body), body))
        sock = socket.create_connection(
            (handle.server.host, handle.server.port), timeout=10)
        sock.sendall(request)
        sock.close()  # gone before its batch is solved
        status, raw = _post(handle.url, "/v1/solve",
                            {"protocol": "synapse", "n": 24})
        assert status == 200
        assert json.loads(raw)["results"][0]["speedup"] > 0


class TestConcurrency:
    def test_many_concurrent_solves_batch_together(self, handle):
        sizes = list(range(2, 18, 2))
        responses = _solve_in_one_iteration(
            handle, [{"protocol": "illinois", "n": n} for n in sizes])
        for (head, body), n in zip(responses, sizes):
            assert head.startswith(b"HTTP/1.1 200 ")
            assert json.loads(body)["results"][0]["n_processors"] == n
        stats = handle.service.coalescer.stats()
        assert stats["cells"] == len(sizes)
        assert stats["batches"] < stats["cells"]

    def test_requests_read_in_one_iteration_share_one_batch(
            self, handle, monkeypatch):
        """The loop drains once the requests it read have queued: no
        timer, yet two requests that arrive together share a batch."""
        batches = []
        real = SolveCoalescer._solve

        def recording(self, batch, reason):
            batches.append(sorted(entry.task.n for entry in batch))
            return real(self, batch, reason)

        monkeypatch.setattr(SolveCoalescer, "_solve", recording)
        responses = _solve_in_one_iteration(
            handle, [{"protocol": "dragon", "n": 3},
                     {"protocol": "dragon", "n": 5}])
        assert all(head.startswith(b"HTTP/1.1 200 ")
                   for head, _ in responses)
        assert batches == [[3, 5]]


class TestParityWithThreadedServer:
    def test_same_bytes_modulo_operational_fields(self):
        body = {"protocol": "write-once", "n": [2, 8], "sharing": "1"}
        async_service = ModelService.with_coalescer()
        async_handle = start_async_server(async_service)
        threaded_service = ModelService()
        threaded = start_server(threaded_service)
        thread = threading.Thread(target=threaded.serve_forever, daemon=True)
        thread.start()
        try:
            _, async_raw = _post(async_handle.url, "/v1/solve", body)
            _, threaded_raw = _post(threaded.url, "/v1/solve", body)

            def normalize(raw):
                payload = json.loads(raw)
                payload["summary"].pop("wall_seconds")
                payload["summary"].pop("mode")
                return json.dumps(payload, sort_keys=True)

            assert normalize(async_raw) == normalize(threaded_raw)
        finally:
            threaded.shutdown()
            threaded.server_close()
            thread.join(timeout=5)
            async_handle.shutdown()
            async_service.close()
            threaded_service.close()
