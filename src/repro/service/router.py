"""Transport-agnostic request routing for the consolidated ``/v1`` API.

One routing table shared by both front-ends -- the threaded
:mod:`repro.service.http` server and the asyncio
:mod:`repro.service.aio` server -- so the API surface cannot drift
between transports.  :func:`handle` maps ``(method, path, body)`` onto
a :class:`ModelService` operation and returns a fully rendered
:class:`Response` (status, headers, bytes).

Routes::

    GET  /v1/healthz        liveness JSON
    GET  /v1/metrics        Prometheus text exposition
    GET  /v1/capabilities   engines, dispatch modes, coalescing, limits
    GET  /v1/jobs           every submitted async job with progress
    POST /v1/solve          one protocol, one or more sizes
    POST /v1/grid           full sweep (protocols x sharing x N)
    POST /v1/sweep          submit an async sharded sweep
    GET  /v1/sweep/{job_id} sweep progress counters
    POST /v1/verify         run the verification suite

Every error -- including on retired legacy paths -- is the structured
``/v1`` envelope::

    {"error": {"code": "...", "message": "...", "detail": ...}}

The legacy unversioned endpoints (``/solve``, ``/grid``, ``/healthz``,
``/metrics``) shipped ``Deprecation: true`` + ``Link`` successor
headers for two release cycles and are now **retired**: any request to
one answers ``410 Gone`` with code ``gone`` and the ``/v1`` successor
in ``error.detail.successor`` (plus the same ``Link`` header), so a
stale client gets a machine-actionable pointer instead of a silent 404.

The ``engine`` field of ``/v1/solve`` and ``/v1/grid`` is in its
deprecation cycle: still accepted, no effect, and every answer to a
body that sets it carries ``Deprecation: true`` and a ``Sunset`` date
(RFC 8594).
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from typing import Any

from repro.service.app import ModelService
from repro.service.schema import ENGINE_DEPRECATION_HEADERS, ServiceError

_LOG = logging.getLogger(__name__)

#: Reject request bodies over this size before reading them fully.
MAX_BODY_BYTES = 8 * 1024 * 1024

#: The current (only) API version prefix.
API_VERSION = "v1"

#: Endpoint -> allowed method; shared by routing and 405 ``Allow``.
GET_ROUTES = ("/healthz", "/metrics", "/capabilities", "/jobs")
POST_ROUTES = ("/solve", "/grid", "/sweep", "/verify")

#: Retired unversioned path -> its ``/v1`` successor (410 Gone).
LEGACY_GONE = {
    "/healthz": "/v1/healthz",
    "/metrics": "/v1/metrics",
    "/solve": "/v1/solve",
    "/grid": "/v1/grid",
}

JSON_TYPE = "application/json"
METRICS_TYPE = "text/plain; version=0.0.4; charset=utf-8"


@dataclass(frozen=True)
class Response:
    """One rendered HTTP response, transport-independent."""

    status: int
    body: bytes
    content_type: str = JSON_TYPE
    headers: tuple[tuple[str, str], ...] = field(default=())

    @classmethod
    def json(cls, status: int, payload: Any,
             headers: tuple[tuple[str, str], ...] = ()) -> "Response":
        # Compact separators: a 16-cell solve response is kilobytes of
        # rows, and the whitespace is pure encode/send overhead.
        return cls(status=status,
                   body=json.dumps(
                       payload, separators=(",", ":")).encode("utf-8"),
                   headers=headers)


def error_envelope(exc: ServiceError) -> dict[str, Any]:
    """The structured ``/v1`` error body."""
    return {"error": {"code": exc.code, "message": exc.message,
                      "detail": exc.details}}


def error_response(exc: ServiceError,
                   headers: tuple[tuple[str, str], ...] = ()) -> Response:
    return Response.json(exc.status, error_envelope(exc), headers=headers)


def legacy_gone(path: str) -> Response:
    """The 410 answer for a retired unversioned endpoint."""
    successor = LEGACY_GONE[path]
    exc = ServiceError(
        410,
        f"the unversioned endpoint {path!r} has been retired; "
        f"use {successor}",
        details={"successor": successor},
        code="gone")
    return error_response(
        exc, headers=(("Link", f"<{successor}>; rel=\"successor-version\""),))


def parse_json_body(body: bytes | None) -> Any:
    """Decode a request body exactly like both transports must."""
    if not body:
        raise ServiceError(400, "empty request body (expected JSON)")
    if len(body) > MAX_BODY_BYTES:
        raise ServiceError(413, "request body too large")
    try:
        return json.loads(body)
    except ValueError as exc:
        raise ServiceError(
            400, f"request body is not valid JSON: {exc}") from exc


def deprecation_headers(payload: Any) -> tuple[tuple[str, str], ...]:
    """The RFC 8594 headers owed to a body that sets ``engine``."""
    if isinstance(payload, dict) and "engine" in payload:
        return ENGINE_DEPRECATION_HEADERS
    return ()


def split_version(path: str) -> tuple[str, bool]:
    """Split ``path`` into (endpoint, versioned)."""
    prefix = f"/{API_VERSION}"
    if path == prefix or path.startswith(prefix + "/"):
        return path[len(prefix):] or "/", True
    return path, False


def handle(service: ModelService, method: str, path: str,
           body: bytes | None) -> Response:
    """Route one request; never raises (errors become envelopes)."""
    try:
        return _dispatch(service, method, path, body)
    except ServiceError as exc:
        return error_response(exc)
    except Exception as exc:  # noqa: BLE001 - must answer the client
        _LOG.exception("unhandled error serving %s %s", method, path)
        return error_response(
            ServiceError(500, f"internal error: {exc}"))


def _dispatch(service: ModelService, method: str, path: str,
              body: bytes | None) -> Response:
    endpoint, versioned = split_version(path)
    if not versioned:
        if endpoint in LEGACY_GONE:
            return legacy_gone(endpoint)
        if endpoint in POST_ROUTES:
            raise ServiceError(
                404, f"unknown path {path!r} "
                     f"(did you mean /{API_VERSION}{path}?)")
        raise ServiceError(404, f"unknown path {path!r}")

    if method == "GET":
        if endpoint == "/healthz":
            return Response.json(200, service.health())
        if endpoint == "/metrics":
            return Response(200, service.metrics_text().encode("utf-8"),
                            content_type=METRICS_TYPE)
        if endpoint == "/capabilities":
            return Response.json(200, service.capabilities())
        if endpoint == "/jobs":
            return Response.json(200, service.list_jobs())
        if endpoint.startswith("/sweep/"):
            return Response.json(
                200, service.sweep_status(endpoint[len("/sweep/"):]))
        if endpoint in POST_ROUTES:
            return _method_not_allowed(path, "POST")
        raise ServiceError(404, f"unknown path {path!r}")

    if method == "POST":
        handlers = {"/solve": service.solve, "/grid": service.grid,
                    "/sweep": service.sweep, "/verify": service.verify}
        handler = handlers.get(endpoint)
        if handler is not None:
            payload = parse_json_body(body)
            return Response.json(200, handler(payload, strict=True),
                                 headers=deprecation_headers(payload))
        if endpoint in GET_ROUTES or endpoint.startswith("/sweep/"):
            return _method_not_allowed(path, "GET")
        raise ServiceError(404, f"unknown path {path!r}")

    allowed = "GET" if endpoint in GET_ROUTES \
        or endpoint.startswith("/sweep/") else "POST"
    return _method_not_allowed(path, allowed, method=method)


def _method_not_allowed(path: str, allowed: str,
                        method: str | None = None) -> Response:
    detail = (f"{path} requires {allowed}" if method is None
              else f"method {method} not allowed on {path} (use {allowed})")
    return error_response(ServiceError(405, detail),
                          headers=(("Allow", allowed),))
