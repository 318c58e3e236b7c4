"""Span recording for the traced benchmark run (stdlib only).

A :class:`Tracer` wraps functions and methods so each call records one
span: name, start and end (``perf_counter_ns``, which is the system-wide
``CLOCK_MONOTONIC`` on Linux, so spans from different processes share
one time base), the id of the enclosing span, a request or sweep tag,
and optional attributes taken from the call.  The enclosing span and
the tag travel in :mod:`contextvars`, so nesting follows threads and
asyncio tasks.  Spans stay in memory until :meth:`Tracer.dump` writes
them as one JSON file per process; :func:`load` merges the files.

A span's *self time* is its duration minus the part of its interval
covered by the union of its children's intervals (children may live in
other threads or processes and may overlap each other).
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from collections.abc import Callable, Iterable
from pathlib import Path
from typing import Any

_CURRENT: contextvars.ContextVar[str | None] = contextvars.ContextVar(
    "perfbench_span", default=None)
_TAG: contextvars.ContextVar[str] = contextvars.ContextVar(
    "perfbench_tag", default="")

#: ``attrs(args, kwargs, result) -> dict`` extracts span attributes.
AttrFn = Callable[[tuple, dict, Any], dict]


class Tracer:
    """In-memory span store for one process.

    ``tag`` labels root spans (a sweep or pass id); :meth:`tagged`
    rebinds it for a request.  After ``fork`` the child must call
    :meth:`reset` so it neither re-dumps the parent's spans nor reuses
    its ids (see :meth:`install_fork_hook`).
    """

    def __init__(self, tag: str = ""):
        self.spans: list[dict[str, Any]] = []
        self.pid = os.getpid()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        _TAG.set(tag)

    def reset(self) -> None:
        self.spans = []
        self.pid = os.getpid()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def install_fork_hook(self) -> None:
        os.register_at_fork(after_in_child=self.reset)

    # -- recording -------------------------------------------------------

    def _new_id(self) -> str:
        return f"{self.pid}:{next(self._ids)}"

    def record(self, name: str, start_ns: int, end_ns: int,
               parent: str | None = None, span_id: str | None = None,
               tag: str | None = None, **attrs: Any) -> str:
        """Store one finished span; returns its id.

        ``tag`` defaults to the caller's current tag; pass it when the
        span is recorded from another thread than the one it belongs to.
        """
        span_id = span_id or self._new_id()
        span = {"id": span_id, "parent": parent, "name": name,
                "start": start_ns, "end": end_ns,
                "tag": _TAG.get() if tag is None else tag, "pid": self.pid}
        if attrs:
            span["attrs"] = attrs
        with self._lock:
            self.spans.append(span)
        return span_id

    def event(self, name: str, **attrs: Any) -> None:
        """A zero-length span carrying attributes (counters, samples)."""
        now = time.perf_counter_ns()
        self.record(name, now, now, parent=_CURRENT.get(), **attrs)

    def span(self, name: str) -> "_SpanContext":
        """Context manager timing the enclosed block as one span."""
        return _SpanContext(self, name)

    def tagged(self, tag: str) -> contextvars.Token:
        return _TAG.set(tag)

    def wrap(self, fn: Callable, name: str,
             attrs: AttrFn | None = None) -> Callable:
        """Return ``fn`` wrapped so every call records a span; ``attrs``
        adds attributes from the arguments and result of a call that
        returned."""
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_wrapper(*args: Any, **kwargs: Any) -> Any:
                with self.span(name) as span:
                    result = await fn(*args, **kwargs)
                    if attrs is not None:
                        span.attrs = attrs(args, kwargs, result)
                    return result
            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with self.span(name) as span:
                result = fn(*args, **kwargs)
                if attrs is not None:
                    span.attrs = attrs(args, kwargs, result)
                return result
        return wrapper

    def patch(self, owner: Any, attr: str, name: str,
              attrs: AttrFn | None = None) -> None:
        """Replace ``owner.attr`` by its traced wrapper.

        For a module-level function, every loaded ``repro`` module that
        imported the same object by name is patched too, so
        ``from x import f`` call sites are traced as well.
        """
        original = inspect.getattr_static(owner, attr)
        if isinstance(original, (staticmethod, classmethod)):
            raise TypeError(f"cannot trace descriptor {attr!r}")
        wrapped = self.wrap(original, name, attrs)
        setattr(owner, attr, wrapped)
        if inspect.ismodule(owner):
            for module in list(sys.modules.values()):
                namespace = getattr(module, "__dict__", None)
                if (namespace is None
                        or not getattr(module, "__name__", "").startswith(
                            "repro")):
                    continue
                for key, value in list(namespace.items()):
                    if value is original:
                        namespace[key] = wrapped

    def dump(self, path: str | os.PathLike[str]) -> None:
        """Write this process's spans as one JSON document."""
        with self._lock:
            spans = list(self.spans)
        Path(path).write_text(json.dumps({"pid": self.pid, "spans": spans}))


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name
        self.attrs: dict[str, Any] = {}

    def __enter__(self) -> "_SpanContext":
        self.span_id = self.tracer._new_id()
        self.parent = _CURRENT.get()
        self.token = _CURRENT.set(self.span_id)
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc: object) -> None:
        end = time.perf_counter_ns()
        _CURRENT.reset(self.token)
        self.tracer.record(self.name, self.start, end, self.parent,
                           self.span_id, **self.attrs)


def current_span() -> str | None:
    """Id of the span enclosing the caller (``None`` at the root)."""
    return _CURRENT.get()


def current_tag() -> str:
    """The request or sweep tag of the caller's context."""
    return _TAG.get()


def load(paths: Iterable[str | os.PathLike[str]]) -> list[dict[str, Any]]:
    """Merge the span files written by every traced process."""
    spans: list[dict[str, Any]] = []
    for path in paths:
        spans.extend(json.loads(Path(path).read_text())["spans"])
    return spans


def _covered(interval: tuple[int, int],
             children: list[tuple[int, int]]) -> int:
    """Length of the part of ``interval`` covered by ``children``."""
    lo, hi = interval
    covered = 0
    reach = lo
    for start, end in sorted(children):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            covered += end - start
            reach = end
    return covered


def self_times(spans: list[dict[str, Any]]) -> dict[str, int]:
    """Self time (ns) of every span, keyed by span id."""
    children: dict[str, list[tuple[int, int]]] = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["start"], span["end"]))
    return {span["id"]: (span["end"] - span["start"]
                         - _covered((span["start"], span["end"]),
                                    children.get(span["id"], [])))
            for span in spans}
