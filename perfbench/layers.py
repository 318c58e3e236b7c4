"""The layer table: which program calls the traced run wraps, and the
per-layer metrics derived from the spans they record.

Nothing under ``src/`` is edited: :func:`install` patches the public
entry points of each layer (plus three private seams of the coalescer
and the async front-end, named below) in the already-imported modules.  The
span names are ``<layer>.<call>``; a layer's self time is the sum of
the self times of its spans.
"""

from __future__ import annotations

import itertools
import os
import statistics
import time
from collections import defaultdict
from typing import Any

from spans import Tracer, current_span, current_tag

#: Per-layer metrics a workload measures itself rather than from spans
#: (scraped server counters, the load generator, output checks); they
#: read 0 on a workload that does not exercise them.
WORKLOAD_MEASURED = (
    "coalesce.flushes_window", "coalesce.flushes_max_batch",
    "coalesce.requests_per_flush", "coalesce.batch_cells_mean",
    "coalesce.wait_ms_mean", "aio.outside_ms_mean", "sim.max_speedup_gap",
    "loadgen.late_ms_p99", "loadgen.conn_wait_ms_p99",
    "loadgen.flagged_windows")


def _solver_attrs(args: tuple, kwargs: dict, result: Any) -> dict:
    diag = result[1]
    return {"iterations": diag.iterations, "recovered": bool(diag.recovered)}


def _batch_attrs(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"cells": len(result),
            "sweeps": max((d.iterations for d in result.diagnostics),
                          default=0)}


def _queue_attrs(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"chunks": result.counters["chunks"],
            "requeues": result.counters["requeues"],
            "workers": result.workers}


def _sim_attrs(args: tuple, kwargs: dict, result: Any) -> dict:
    sim = args[0]
    return {"reps": sim.reps, "requests": sim.config.measured_requests}


def install(tracer: Tracer, trace_prefix: str) -> None:
    """Import every traced module and wrap its layer boundaries.

    Forked sweep workers write their spans to
    ``<trace_prefix>.<pid>.json``.
    """
    from repro import cli
    from repro.core import batch, solver
    from repro.service import aio, app, cache, coalesce, executor, keys, router
    from repro.sim import vector
    from repro.sweepq import journal, queue, store, worker
    from repro.workload import derived

    patch = tracer.patch
    patch(cli, "main", "cli.main")
    patch(cache.ResultCache, "__init__", "cache.load")
    patch(cache.ResultCache, "get", "cache.get",
          lambda a, k, r: {"hit": r is not None})
    patch(cache.ResultCache, "put", "cache.put")
    patch(cache.ResultCache, "put_many", "cache.put_many")
    patch(keys, "task_key", "keys.task_key")
    patch(keys, "prime_task_keys", "keys.prime_task_keys")
    patch(executor.SweepExecutor, "run", "executor.run")
    patch(executor, "evaluate_task", "executor.evaluate_task")
    patch(executor, "evaluate_with_retry", "executor.evaluate_with_retry",
          lambda a, k, r: {"attempts": r.get("attempts", 1)})
    patch(executor, "evaluate_mva_batch", "executor.evaluate_mva_batch")
    patch(derived.DerivedInputs, "cache_interference_many",
          "derived.cache_interference_many")
    patch(solver.FixedPointSolver, "solve_with_recovery",
          "solver.solve_with_recovery", _solver_attrs)
    patch(batch, "solve_batch", "batch.solve_batch", _batch_attrs)
    patch(queue.SweepQueue, "run", "sweepq.run", _queue_attrs)
    patch(journal.SweepJournal, "claim", "sweepq.claim")
    patch(journal.SweepJournal, "complete", "sweepq.complete")
    patch(store.ResultStore, "write", "sweepq.store_write")
    patch(store.ResultStore, "read", "sweepq.store_read")
    patch(worker, "solve_chunk", "sweepq.solve_chunk")
    patch(vector.VectorSnoopingBusSimulator, "run", "sim.run", _sim_attrs)
    patch(coalesce.SolveCoalescer, "stats", "coalesce.stats")
    # Private seams: the flusher's batch (one span per flush, on its own
    # thread) and the queue-depth gauge update.
    patch(coalesce.SolveCoalescer, "_solve", "coalesce.flush",
          lambda a, k, r: {"cells": len(a[1]), "reason": a[2]})
    patch(coalesce.SolveCoalescer, "_set_depth", "coalesce.set_depth",
          lambda a, k, r: {"depth": a[1]})
    patch(app.ModelService, "solve_prepare", "service.solve_prepare")
    patch(app.ModelService, "solve_response", "service.solve_response")
    patch(router, "handle", "service.handle")
    _patch_flush(tracer, cache.ResultCache)
    _patch_submit(tracer, coalesce.SolveCoalescer)
    _patch_respond(tracer, aio.AsyncServiceServer)
    _patch_worker_main(tracer, queue, trace_prefix)
    tracer.install_fork_hook()


def _file_id(path: Any) -> tuple[int, int] | None:
    try:
        stat = os.stat(path)
    except (OSError, TypeError):
        return None
    return stat.st_ino, stat.st_size


def _patch_flush(tracer: Tracer, cls: type) -> None:
    """``cache.flush`` spans; one that rewrote the store (the atomic
    replace gives the file a new inode) carries the bytes written."""
    original = cls.flush

    def flush(self: Any) -> None:
        before = _file_id(self.path)
        with tracer.span("cache.flush") as span:
            original(self)
            after = _file_id(self.path)
            if after is not None and after != before:
                span.attrs["bytes"] = after[1]

    cls.flush = flush


def _patch_submit(tracer: Tracer, cls: type) -> None:
    """``submit_request`` plus a ``coalesce.wait`` span from its return
    until the flusher resolves the request's future."""
    traced = tracer.wrap(cls.submit_request, "coalesce.submit_request")

    def submit_request(self: Any, tasks: Any, *args: Any, **kwargs: Any):
        future, cached = traced(self, tasks, *args, **kwargs)
        parent, tag = current_span(), current_tag()
        start = time.perf_counter_ns()
        future.add_done_callback(lambda _: tracer.record(
            "coalesce.wait", start, time.perf_counter_ns(), parent=parent,
            tag=tag))
        return future, cached

    cls.submit_request = submit_request


def _patch_respond(tracer: Tracer, cls: type) -> None:
    """One ``service.request`` span per HTTP request on the async front,
    tagged with a request id its child spans inherit."""
    traced = tracer.wrap(cls._respond, "service.request",
                         lambda a, k, r: {"path": a[2],
                                          "status": getattr(r, "status", 0)})
    ids = itertools.count(1)

    async def _respond(self: Any, method: str, path: str, body: bytes):
        token = tracer.tagged(f"req-{next(ids)}")
        try:
            return await traced(self, method, path, body)
        finally:
            token.var.reset(token)

    cls._respond = _respond


def _patch_worker_main(tracer: Tracer, queue_module: Any,
                       trace_prefix: str) -> None:
    """Forked sweep workers exit with ``os._exit`` (no ``atexit``), so the
    worker entry point itself writes the child's span file and CPU time."""
    original = queue_module.worker_main

    def worker_main(*args: Any, **kwargs: Any) -> None:
        try:
            original(*args, **kwargs)
        finally:
            times = os.times()
            tracer.event("sweepq.worker_cpu",
                         cpu_s=times.user + times.system)
            tracer.dump(f"{trace_prefix}.{os.getpid()}.json")

    queue_module.worker_main = worker_main


# -- metrics -------------------------------------------------------------


def _by_name(spans: list[dict]) -> dict[str, list[dict]]:
    grouped: dict[str, list[dict]] = defaultdict(list)
    for span in spans:
        grouped[span["name"]].append(span)
    return grouped


def _dur_s(span: dict) -> float:
    return (span["end"] - span["start"]) / 1e9


def layer_self_seconds(spans: list[dict],
                       selfs: dict[str, int]) -> dict[str, float]:
    """Self time per layer (the prefix of each span name)."""
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span["name"].split(".", 1)[0]] += selfs[span["id"]] / 1e9
    return dict(totals)


def span_metrics(spans: list[dict], selfs: dict[str, int]) -> dict[str, float]:
    """Per-layer metrics that come from the spans alone."""
    named = _by_name(spans)

    def total(name: str) -> float:
        return sum(_dur_s(s) for s in named.get(name, ()))

    def self_total(*names: str) -> float:
        return sum(selfs[s["id"]] / 1e9 for n in names
                   for s in named.get(n, ()))

    def attr(name: str, key: str) -> list[Any]:
        return [s["attrs"][key] for s in named.get(name, ())
                if key in s.get("attrs", {})]

    gets = named.get("cache.get", [])
    hits = sum(1 for s in gets if s["attrs"]["hit"])
    solver_iters = attr("solver.solve_with_recovery", "iterations")
    batch_cells = attr("batch.solve_batch", "cells")
    sims = named.get("sim.run", [])
    sim_requests = sum(s["attrs"]["reps"] * s["attrs"]["requests"]
                       for s in sims)
    runs = named.get("sweepq.run", [])
    run_s = sum(_dur_s(s) for s in runs)
    workers = sum(s["attrs"].get("workers", 1) for s in runs)
    worker_cpu = sum(attr("sweepq.worker_cpu", "cpu_s"))
    imports = [_dur_s(s) for s in named.get("cli.import", [])]
    requests = [s for s in named.get("service.request", [])
                if s.get("attrs", {}).get("path") == "/v1/solve"]
    return {
        "cli.import_s": statistics.median(imports) if imports else 0.0,
        "cache.load_s": total("cache.load"),
        "cache.get_calls": len(gets),
        "cache.hit_ratio": hits / len(gets) if gets else 0.0,
        "cache.put_calls": (len(named.get("cache.put", []))
                            + len(named.get("cache.put_many", []))),
        "cache.flush_calls": len(attr("cache.flush", "bytes")),
        "cache.flush_s": total("cache.flush"),
        "cache.flush_mb": sum(attr("cache.flush", "bytes")) / 1e6,
        "keys.calls": (len(named.get("keys.task_key", []))
                       + len(named.get("keys.prime_task_keys", []))),
        "keys.self_s": self_total("keys.task_key", "keys.prime_task_keys"),
        "solver.calls": len(named.get("solver.solve_with_recovery", [])),
        "solver.self_s": self_total("solver.solve_with_recovery"),
        "solver.iterations_mean": (statistics.fmean(solver_iters)
                                   if solver_iters else 0.0),
        "solver.recovered": sum(attr("solver.solve_with_recovery",
                                     "recovered")),
        "executor.task_calls": len(named.get("executor.evaluate_task", [])),
        "executor.task_s": total("executor.evaluate_task"),
        "executor.retries": sum(a - 1 for a in attr(
            "executor.evaluate_with_retry", "attempts")),
        "executor.batch_s": total("executor.evaluate_mva_batch"),
        "derived.interference_s": total("derived.cache_interference_many"),
        "batch.calls": len(batch_cells),
        "batch.cells_per_call": (statistics.fmean(batch_cells)
                                 if batch_cells else 0.0),
        "batch.sweeps_max": max(attr("batch.solve_batch", "sweeps"),
                                default=0),
        "batch.self_s": self_total("batch.solve_batch"),
        "sim.calls": len(sims),
        "sim.self_s": self_total("sim.run"),
        "sim.host_us_per_req": (1e6 * self_total("sim.run") / sim_requests
                                if sim_requests else 0.0),
        "sweepq.chunks": sum(attr("sweepq.run", "chunks")),
        "sweepq.requeues": sum(attr("sweepq.run", "requeues")),
        "sweepq.workers_used": len({s["pid"] for s in
                                    named.get("sweepq.solve_chunk", [])}),
        "sweepq.worker_busy_share": (worker_cpu / (workers * run_s)
                                     if run_s else 0.0),
        "sweepq.journal_s": total("sweepq.claim") + total("sweepq.complete"),
        "sweepq.store_s": (total("sweepq.store_write")
                           + total("sweepq.store_read")),
        "coalesce.queue_depth_max": max(attr("coalesce.set_depth", "depth"),
                                        default=0),
        "service.prepare_s": total("service.solve_prepare"),
        "service.respond_s": total("service.solve_response"),
        "service.handle_ms_p50": (1e3 * statistics.median(
            _dur_s(s) for s in requests) if requests else 0.0),
    }
