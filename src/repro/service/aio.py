"""Asyncio HTTP front-end: thousands of connections, no thread each.

``asyncio.start_server`` plus a minimal HTTP/1.1 request loop (request
line, headers, ``Content-Length`` body, keep-alive) -- no third-party
framework, exactly like the rest of the service stack.  Every route is
served by the shared :mod:`repro.service.router`, so the surface is
byte-identical to the threaded server's; the difference is purely how
requests wait:

* ``POST /v1/solve`` with a :class:`~repro.service.coalesce
  .SolveCoalescer` attached is handled *natively on the event loop*:
  the request's cells are submitted to the shared coalescing queue and
  the handler ``await``\\ s the batch futures (``asyncio.wrap_future``),
  so ten thousand in-flight solves cost ten thousand coroutines -- not
  ten thousand threads; the loop solves their cells itself, as one
  vectorized ``solve_batch`` call, whenever it has nothing else ready.
* Everything else (grid, sweep, verify, and solve without a coalescer)
  runs in the default thread-pool executor via ``run_in_executor``, so
  a long sweep cannot stall the accept loop.

A client that disconnects mid-wait cancels only its own handler task;
its batch still solves (sibling waiters are untouched) and the result
still lands in the shared cache.
"""

from __future__ import annotations

import asyncio
import contextvars
import logging
import threading
import time
from typing import Any

from repro.service.app import ModelService
from repro.service.executor import collect_sweep_result
from repro.service.router import (
    MAX_BODY_BYTES,
    Response,
    ServiceError,
    deprecation_headers,
    error_response,
    handle,
    parse_json_body,
    split_version,
)

_LOG = logging.getLogger(__name__)

#: Cap on the request line + each header line (anti-abuse, not a spec).
_MAX_LINE_BYTES = 16 * 1024

#: Cap on headers per request (http.client's default on the threaded
#: front-end, mirrored here so neither accepts unbounded header memory).
_MAX_HEADERS = 100

#: Idle keep-alive timeout between requests on one connection.
_KEEPALIVE_TIMEOUT = 120.0

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 410: "Gone",
            413: "Payload Too Large", 500: "Internal Server Error"}


class AsyncServiceServer:
    """One ``asyncio.start_server`` bound to one :class:`ModelService`.

    Use :func:`start_async_server` for the drive-from-a-thread wrapper
    (tests, benchmarks, the threaded CLI); inside an existing event
    loop, ``await server.start()`` / ``await server.aclose()`` directly.
    """

    def __init__(self, service: ModelService, host: str = "127.0.0.1",
                 port: int = 0):
        self.service = service
        self.host = host
        self.port = port
        self._server: asyncio.base_events.Server | None = None
        self._drain_due = False

    async def start(self) -> None:
        # The StreamReader buffer limit backs the per-line cap: readline
        # raises ValueError at the limit, which the request loop turns
        # into a 400 instead of the default 64 KiB silent ceiling.
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port,
            limit=_MAX_LINE_BYTES)
        self.port = self._server.sockets[0].getsockname()[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def aclose(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    # -- connection handling ---------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    line = await asyncio.wait_for(
                        reader.readline(), timeout=_KEEPALIVE_TIMEOUT)
                except asyncio.TimeoutError:
                    break
                except (ValueError, asyncio.LimitOverrunError):
                    # readline hit the StreamReader limit before our
                    # length check could: answer 400, don't leak an
                    # unhandled task exception.
                    await self._write(writer, error_response(
                        ServiceError(400, "request line too long")), False)
                    break
                if not line:
                    break  # clean EOF between requests
                keep_alive = await self._handle_request(line, reader, writer)
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away; nothing to answer
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _handle_request(self, request_line: bytes,
                              reader: asyncio.StreamReader,
                              writer: asyncio.StreamWriter) -> bool:
        """Serve one request; returns whether to keep the connection."""
        if len(request_line) > _MAX_LINE_BYTES:
            await self._write(writer, error_response(
                ServiceError(400, "request line too long")), False)
            return False
        parts = request_line.decode("latin-1").strip().split()
        if len(parts) != 3:
            await self._write(writer, error_response(
                ServiceError(400, "malformed request line")), False)
            return False
        method, path, version = parts
        headers = await self._read_headers(reader)
        if headers is None:
            await self._write(writer, error_response(
                ServiceError(400, "malformed headers")), False)
            return False
        keep_alive = (version == "HTTP/1.1"
                      and headers.get("connection", "").lower() != "close")
        try:
            body = await self._read_body(reader, headers)
        except ServiceError as exc:
            await self._write(writer, error_response(exc), False)
            return False
        response = await self._respond(method, path, body)
        await self._write(writer, response, keep_alive)
        return keep_alive

    @staticmethod
    async def _read_headers(reader: asyncio.StreamReader
                            ) -> dict[str, str] | None:
        headers: dict[str, str] = {}
        while True:
            try:
                line = await reader.readline()
            except (ValueError, asyncio.LimitOverrunError):
                return None  # header line over the StreamReader limit
            if line in (b"\r\n", b"\n"):
                return headers
            if not line or len(line) > _MAX_LINE_BYTES:
                return None
            if len(headers) >= _MAX_HEADERS:
                return None
            name, sep, value = line.decode("latin-1").partition(":")
            if not sep:
                return None
            headers[name.strip().lower()] = value.strip()

    @staticmethod
    async def _read_body(reader: asyncio.StreamReader,
                         headers: dict[str, str]) -> bytes:
        try:
            length = int(headers.get("content-length", "0") or "0")
        except ValueError as exc:
            raise ServiceError(400, "bad Content-Length header") from exc
        if length > MAX_BODY_BYTES:
            raise ServiceError(413, "request body too large")
        if length <= 0:
            return b""
        try:
            return await reader.readexactly(length)
        except asyncio.IncompleteReadError as exc:
            raise ServiceError(400, "truncated request body") from exc

    # -- dispatch --------------------------------------------------------

    async def _respond(self, method: str, path: str, body: bytes) -> Response:
        endpoint, versioned = split_version(path)
        if (method == "POST" and versioned and endpoint == "/solve"
                and self.service.coalescer is not None):
            return await self._solve_coalesced(body)
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            None, handle, self.service, method, path, body)

    async def _solve_coalesced(self, body: bytes) -> Response:
        """The native path: submit cells, await the batch, render.

        Submission is non-blocking (cache lookup + queue append); the
        solve happens in the loop's next drain while this coroutine --
        and thousands of siblings -- just await.
        """
        service = self.service
        coalescer = service.coalescer
        assert coalescer is not None
        try:
            payload = parse_json_body(body)
            request, tasks = service.solve_prepare(payload, strict=True)
            started = time.perf_counter()
            future, cached_flags = coalescer.submit_request(tasks)
            if future.done():
                values = future.result()
            else:
                if not self._drain_due:
                    self._drain_due = True
                    asyncio.get_running_loop().call_later(
                        0, self._drain_when_idle,
                        context=contextvars.Context())
                values = await asyncio.wrap_future(future)
            result = collect_sweep_result(
                tasks, dict(enumerate(values)), cached_flags,
                wall_seconds=time.perf_counter() - started,
                jobs=1, mode="coalesced")
            return Response.json(200, service.solve_response(request, result),
                                 headers=deprecation_headers(payload))
        except ServiceError as exc:
            return error_response(exc)
        except asyncio.CancelledError:
            raise  # client disconnect: let the task die quietly
        except Exception as exc:  # noqa: BLE001 - must answer the client
            _LOG.exception("unhandled error in coalesced solve")
            return error_response(
                ServiceError(500, f"internal error: {exc}"))

    def _drain_when_idle(self) -> None:
        """Drain the coalescer once the loop has nothing else ready
        (or a full batch is queued): a request whose bytes have arrived
        then joins this batch instead of waiting out the solve.  It
        serves many requests, so it runs in a context of its own.

        The check and each retry are zero-delay timers, which the loop
        runs after its I/O callbacks and never counts as ready work, so
        two servers sharing a loop cannot keep deferring to each other.
        """
        loop = asyncio.get_running_loop()
        coalescer = self.service.coalescer
        assert coalescer is not None
        # asyncio has no public "anything ready?" query; ``_ready`` is
        # the stdlib loop's callback deque (other loops drain at once).
        if (getattr(loop, "_ready", None)
                and coalescer.depth < coalescer.max_batch):
            loop.call_later(0, self._drain_when_idle)
            return
        self._drain_due = False
        coalescer.drain()

    @staticmethod
    async def _write(writer: asyncio.StreamWriter, response: Response,
                     keep_alive: bool) -> None:
        reason = _REASONS.get(response.status, "Unknown")
        head = [f"HTTP/1.1 {response.status} {reason}",
                f"Content-Type: {response.content_type}",
                f"Content-Length: {len(response.body)}"]
        head.extend(f"{name}: {value}" for name, value in response.headers)
        head.append(f"Connection: {'keep-alive' if keep_alive else 'close'}")
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1")
                     + response.body)
        try:
            await writer.drain()
        except (ConnectionError, OSError):
            pass  # client disconnected mid-response


class AsyncServerHandle:
    """A started async server plus the thread driving its event loop.

    The synchronous face tests, benchmarks and the CLI use: construct
    via :func:`start_async_server`, read ``.url``, call ``.shutdown()``.
    """

    def __init__(self, server: AsyncServiceServer,
                 loop: asyncio.AbstractEventLoop, thread: threading.Thread):
        self.server = server
        self._loop = loop
        self._thread = thread

    @property
    def url(self) -> str:
        return self.server.url

    @property
    def service(self) -> ModelService:
        return self.server.service

    def shutdown(self, timeout: float = 10.0) -> None:
        if not self._thread.is_alive():
            return
        asyncio.run_coroutine_threadsafe(
            self.server.aclose(), self._loop).result(timeout)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout)


def start_async_server(service: ModelService, host: str = "127.0.0.1",
                       port: int = 0) -> AsyncServerHandle:
    """Boot an :class:`AsyncServiceServer` on a background event-loop
    thread and return once it is accepting connections."""
    loop = asyncio.new_event_loop()
    server = AsyncServiceServer(service, host=host, port=port)
    started: threading.Event = threading.Event()
    boot_error: list[BaseException] = []

    def _run() -> None:
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(server.start())
        except BaseException as exc:  # noqa: BLE001 - surfaced to caller
            boot_error.append(exc)
            started.set()
            return
        started.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()

    thread = threading.Thread(target=_run, name="repro-aio-server",
                              daemon=True)
    thread.start()
    started.wait(timeout=10)
    if boot_error:
        raise boot_error[0]
    return AsyncServerHandle(server, loop, thread)


def serve_async(service: ModelService, host: str = "127.0.0.1",
                port: int = 0, announce: Any = None) -> None:
    """Run the async server in the *current* thread until interrupted
    (the ``repro serve --async`` entry point)."""

    async def _main() -> None:
        server = AsyncServiceServer(service, host=host, port=port)
        await server.start()
        if announce is not None:
            announce(server.url)
        try:
            await server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await server.aclose()

    asyncio.run(_main())
