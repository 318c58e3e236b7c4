"""Threaded stdlib HTTP front-end over :mod:`repro.service.router`.

``http.server`` is all we need for interactive exploration traffic: a
:class:`ThreadingHTTPServer` pins one thread per connection and hands
every request to the shared transport-agnostic router, so this server
and the asyncio front-end (:mod:`repro.service.aio`) expose exactly the
same consolidated ``/v1`` surface -- see :mod:`repro.service.router`
for the route table, the structured error envelope, and the 410 policy
for the retired legacy unversioned endpoints.

For high-concurrency ``/v1/solve`` traffic prefer the asyncio server
(``repro serve --async``): thread-per-connection tops out at a few
hundred concurrent clients, while the async front-end holds thousands
of connections and feeds the same :class:`repro.service.coalesce
.SolveCoalescer` without a thread each.  When the bound service has a
coalescer attached, this threaded server uses it too -- each handler
thread drains the queue or waits for the drain that solves its cells
-- so the two fronts stay byte-identical per response.
"""

from __future__ import annotations

import logging
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

from repro.service.app import ModelService, ServiceError
from repro.service.router import (
    API_VERSION,
    MAX_BODY_BYTES,
    Response,
    error_response,
    handle,
)

_LOG = logging.getLogger(__name__)

__all__ = ["API_VERSION", "MAX_BODY_BYTES", "ServiceHTTPServer",
           "start_server"]


class ServiceHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one :class:`ModelService`."""

    daemon_threads = True
    # Responses are written as one buffered flush (see the handler's
    # ``wbufsize``); without TCP_NODELAY the header/body send split
    # still interacts with delayed ACKs into ~40 ms response stalls.
    disable_nagle_algorithm = True

    def __init__(self, service: ModelService, host: str = "127.0.0.1",
                 port: int = 0):
        self.service = service
        super().__init__((host, port), _ServiceRequestHandler)

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


class _ServiceRequestHandler(BaseHTTPRequestHandler):
    server: ServiceHTTPServer
    protocol_version = "HTTP/1.1"
    # Buffer the status line + headers + body into one send instead of
    # the default unbuffered write-per-line (a Nagle/delayed-ACK trap).
    wbufsize = 64 * 1024

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._respond(handle(self.server.service, "GET", self.path, None))

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        try:
            body = self._read_body()
        except ServiceError as exc:
            self._respond(error_response(exc))
            return
        self._respond(handle(self.server.service, "POST", self.path, body))

    def _read_body(self) -> bytes:
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError as exc:
            raise ServiceError(400, "bad Content-Length header") from exc
        if length > MAX_BODY_BYTES:
            raise ServiceError(413, "request body too large")
        return self.rfile.read(length) if length > 0 else b""

    def _respond(self, response: Response) -> None:
        self.send_response(response.status)
        self.send_header("Content-Type", response.content_type)
        self.send_header("Content-Length", str(len(response.body)))
        for name, value in response.headers:
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(response.body)

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        _LOG.debug("%s - %s", self.address_string(), format % args)


def start_server(service: ModelService, host: str = "127.0.0.1",
                 port: int = 0) -> ServiceHTTPServer:
    """Bind a server (``port=0`` picks an ephemeral port).

    The caller drives it: ``serve_forever()`` to block (the CLI), or a
    background thread + ``shutdown()`` for tests and embedding.
    """
    return ServiceHTTPServer(service, host=host, port=port)
