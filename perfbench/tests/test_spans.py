"""Self-time arithmetic and span nesting."""

import asyncio
import threading

from spans import Tracer, self_times


def _span(span_id, parent, start, end, name="x"):
    return {"id": span_id, "parent": parent, "name": name, "start": start,
            "end": end, "tag": "", "pid": 1}


def test_self_time_subtracts_children():
    spans = [_span("a", None, 0, 100), _span("b", "a", 10, 30),
             _span("c", "a", 50, 60), _span("d", "b", 15, 20)]
    assert self_times(spans) == {"a": 70, "b": 15, "c": 10, "d": 5}


def test_self_time_counts_overlapping_children_once():
    # Two workers' spans overlap inside one parent: covered = [10, 70).
    spans = [_span("a", None, 0, 100), _span("b", "a", 10, 50),
             _span("c", "a", 30, 70)]
    assert self_times(spans)["a"] == 40


def test_self_time_clips_children_to_the_parent():
    # A child recorded past its parent's end (another thread) only
    # covers the part inside the parent.
    spans = [_span("a", None, 0, 100), _span("b", "a", 90, 150)]
    assert self_times(spans) == {"a": 90, "b": 60}


def test_self_times_sum_to_the_root_duration():
    spans = [_span("a", None, 0, 1000), _span("b", "a", 100, 400),
             _span("c", "b", 150, 350), _span("d", "a", 500, 900)]
    assert sum(self_times(spans).values()) == 1000


def test_wrapped_calls_nest():
    tracer = Tracer()

    def inner():
        return 1

    traced_inner = tracer.wrap(inner, "t.inner")

    def outer():
        return traced_inner() + traced_inner()

    assert tracer.wrap(outer, "t.outer")() == 2
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span["name"], []).append(span)
    (root,) = by_name["t.outer"]
    assert root["parent"] is None
    assert [s["parent"] for s in by_name["t.inner"]] == [root["id"]] * 2


def test_async_and_thread_spans_keep_their_own_parents():
    tracer = Tracer()

    async def leaf():
        await asyncio.sleep(0)

    traced_leaf = tracer.wrap(leaf, "t.leaf")

    async def handler():
        await asyncio.gather(traced_leaf(), traced_leaf())

    asyncio.run(tracer.wrap(handler, "t.handler")())
    thread = threading.Thread(target=tracer.wrap(lambda: None, "t.thread"))
    thread.start()
    thread.join(timeout=5)
    assert not thread.is_alive()
    handler_id = next(s["id"] for s in tracer.spans
                      if s["name"] == "t.handler")
    parents = {s["name"]: s["parent"] for s in tracer.spans}
    assert parents["t.leaf"] == handler_id
    assert parents["t.thread"] is None


def test_span_attrs_and_failed_calls_are_recorded():
    tracer = Tracer()

    def boom():
        raise ValueError("x")

    tracer.wrap(lambda: 7, "t.ok", lambda a, k, r: {"result": r})()
    traced = tracer.wrap(boom, "t.boom", lambda a, k, r: {"result": r})
    try:
        traced()
    except ValueError:
        pass
    ok, failed = tracer.spans
    assert ok["attrs"] == {"result": 7}
    assert failed["name"] == "t.boom" and "attrs" not in failed
