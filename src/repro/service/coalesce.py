"""Micro-batching request coalescer for ``POST /v1/solve``.

The batch MVA engine solves a whole grid of cells in one vectorized
fixed point at a fraction of the per-cell scalar cost -- but an HTTP
front-end that answers one request at a time never hands it more than a
request's own cells.  :class:`SolveCoalescer` closes that gap: cells
submitted by concurrent requests queue while a batch solves and are
solved together by the next :meth:`~SolveCoalescer.drain` with
:func:`repro.service.executor.solve_cells` -- one
:func:`~repro.service.executor.evaluate_mva_batch` call for two or more
MVA cells, the executor's own engine rule -- with per-cell
results (and per-cell *errors* -- a poison cell only fails its own
waiter) fanned back through one future per submission.

Like the paper's bus, the queue is a work-conserving server: no batch
is held back while the solver is idle, so batches grow with load and a
lone request pays no hold time.  The asyncio front-end drains on its
event loop whenever the loop has nothing else ready; a blocking caller
(the threaded server, scripts, tests) drains in
:meth:`~SolveCoalescer.result` unless a drain already answered its
future.

Guarantees:

* **Determinism** -- a coalesced cell's value is exactly what a solo
  solve produces: the batch engine is byte-identical to the scalar path
  (``repro.verify``'s differential oracle), failure payloads are the
  same shape, and the cache value written is the same dict either way.
* **Flush reasons** -- a batch of what was queued is a "window" flush;
  a batch cut at ``max_batch`` cells with more queued is "max-batch";
  the drain at shutdown is "close".  The reason is recorded in
  ``repro_coalesce_flushes_total{reason=...}``.
* **In-flight dedup** -- a cell whose key is already queued attaches a
  second future to the pending entry instead of a second solve
  (``repro_coalesce_deduped_total``); the content-addressed
  :class:`~repro.service.cache.ResultCache` answers repeats of already
  *solved* cells without queueing at all.
* **Cancellation safety** -- every *request* gets its own
  :class:`concurrent.futures.Future` (one fan-in future for all of its
  cells); a waiter that goes away (client disconnect) cancels only its
  own future, the batch still solves, and sibling waiters -- including
  a deduped twin of the same cell -- are untouched.

The futures are plain ``concurrent.futures`` ones so both front-ends
share this one coalescer: the threaded server blocks in
:meth:`~SolveCoalescer.result`, the asyncio server awaits
``asyncio.wrap_future(...)`` -- one loop callback per request when its
batch lands, not one per cell.
"""

from __future__ import annotations

import logging
import math
import threading
import time
from collections.abc import Sequence
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any

from repro.service.cache import ResultCache
from repro.service.executor import (
    CellTask,
    record_failure_metric,
    record_solve_metrics_batch,
    solve_cells,
)
from repro.service.metrics import DEFAULT_BATCH_BUCKETS, MetricsRegistry

_LOG = logging.getLogger(__name__)

#: Default cap on the cells of one batch solve.
DEFAULT_MAX_BATCH = 256

#: The flush reasons (label values of ``repro_coalesce_flushes_total``).
FLUSH_REASONS = ("window", "max-batch", "close")


class _Waiter:
    """One request's fan-in point: a single future resolved when every
    one of its cells has a value.

    A request of k cells costs one future -- not k -- so the asyncio
    front-end schedules one loop callback per *request* when the batch
    lands, which is where the coalesced path's throughput headroom
    lives at high concurrency.
    """

    __slots__ = ("future", "values", "missing", "unwrap", "_lock")

    def __init__(self, size: int, unwrap: bool = False):
        self.future: Future = Future()
        self.values: list[dict[str, Any] | None] = [None] * size
        self.missing = size
        self.unwrap = unwrap
        # The submitting thread (cache hits) and a draining thread (batch results) may deliver to one waiter
        # concurrently; the read-modify-write on ``missing`` must not
        # lose a decrement or the future never resolves.
        self._lock = threading.Lock()

    def deliver(self, slot: int, value: dict[str, Any]) -> None:
        with self._lock:
            self.values[slot] = value
            self.missing -= 1
            if self.missing != 0:
                return
        if self.future.set_running_or_notify_cancel():
            self.future.set_result(
                self.values[0] if self.unwrap else self.values)


@dataclass
class _Pending:
    """One queued cell and every (waiter, slot) pair awaiting it."""

    task: CellTask
    enqueued_at: float
    waiters: list[tuple[_Waiter, int]] = field(default_factory=list)


class SolveCoalescer:
    """Stack concurrent solve cells into one vectorized batch call.

    Parameters
    ----------
    cache:
        Optional shared :class:`ResultCache`.  Checked at submit time
        (a hit resolves immediately without queueing) and written after
        every batch (one flush per batch, not per cell).
    metrics:
        Optional :class:`MetricsRegistry` fed with the
        ``repro_coalesce_*`` families plus the shared per-cell solve /
        failure / cache metrics, so a coalesced cell is indistinguishable
        from an executor cell on a dashboard.
    max_batch:
        Most cells one batch solve takes.
    sim_retries:
        Retry budget for simulation cells (solved inside the flush by
        the same engine rule as the MVA cells).
    """

    def __init__(self, cache: ResultCache | None = None,
                 metrics: MetricsRegistry | None = None,
                 max_batch: int = DEFAULT_MAX_BATCH,
                 sim_retries: int = 2):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch!r}")
        self.cache = cache
        self.metrics = metrics
        self.max_batch = max_batch
        self.sim_retries = sim_retries
        # ``_lock`` guards the queue; ``_drain_lock`` lets one drain run
        # at a time, so a caller that waits for it finds its cells
        # either solved or still queued, never half-taken.
        self._lock = threading.Lock()
        self._drain_lock = threading.RLock()
        self._queue: list[_Pending] = []
        self._by_key: dict[str, _Pending] = {}
        self._closed = False
        # Lifetime totals (the load benchmark reads these).
        self._batches = 0
        self._batch_cells = 0
        self._deduped = 0
        self._wait_seconds = 0.0

    # -- submission ------------------------------------------------------

    def submit_request(self, tasks: Sequence[CellTask],
                       unwrap: bool = False) -> tuple[Future, list[bool]]:
        """Queue every cell of one request behind a *single* future.

        Returns ``(future, cached_flags)``: the future resolves to the
        list of per-cell cache-value dicts in task order (an
        ``{"error": ...}`` payload for a dead cell -- the caller turns
        it into an error row exactly like the executor does).  Cells
        already in the cache resolve their slot immediately and are
        flagged ``True``; with every cell cached the future is already
        resolved on return.  One lock acquisition per request,
        regardless of cell count; the queued cells wait for the next
        :meth:`drain`.
        """
        waiter = _Waiter(len(tasks), unwrap=unwrap)
        if not tasks:
            waiter.future.set_result([])
            return waiter.future, []
        cached = [False] * len(tasks)
        resolved: list[tuple[int, dict[str, Any]]] = []
        misses: list[tuple[int, CellTask]] = []
        for slot, task in enumerate(tasks):
            hit = (self.cache.get(task.key)
                   if self.cache is not None else None)
            if hit is not None:
                cached[slot] = True
                resolved.append((slot, hit))
            else:
                misses.append((slot, task))
        self._count_lookups(hits=len(resolved), misses=len(misses))
        # Deliver cache hits before the misses are queued: once a miss
        # is visible to a drain it may deliver to this waiter from
        # its own thread (deliver is lock-protected, but the hit slots
        # have no reason to contend).
        for slot, value in resolved:
            waiter.deliver(slot, value)
        deduped = 0
        with self._lock:
            now = time.monotonic()
            enqueued = 0
            for slot, task in misses:
                pending = self._by_key.get(task.key)
                if pending is None:
                    pending = _Pending(task=task, enqueued_at=now)
                    self._queue.append(pending)
                    self._by_key[task.key] = pending
                    enqueued += 1
                else:
                    deduped += 1
                pending.waiters.append((waiter, slot))
            if enqueued:
                self._set_depth(len(self._queue))
            self._deduped += deduped
        if deduped and self.metrics is not None:
            self.metrics.counter(
                "repro_coalesce_deduped_total",
                "Cells answered by attaching to an identical "
                "in-flight cell.").inc(deduped)
        return waiter.future, cached

    def submit(self, task: CellTask) -> tuple[Future, bool]:
        """Queue one cell; returns ``(future, cached)``.

        The single-cell convenience over :meth:`submit_request`: the
        future resolves to the cell's value dict directly.
        """
        future, cached = self.submit_request([task], unwrap=True)
        return future, cached[0]

    def result(self, future: Future) -> Any:
        """Return ``future``'s value, draining the queue on this thread
        unless another drain answers it first (requests that queue
        meanwhile wait here and then make up the next batch)."""
        with self._drain_lock:
            if not future.done():
                self.drain()
        return future.result()

    def drain(self) -> None:
        """Solve every cell queued when the call starts, at most
        ``max_batch`` cells per batch."""
        with self._drain_lock:
            for _ in range(math.ceil(len(self._queue) / self.max_batch)):
                with self._lock:
                    reason = ("max-batch" if len(self._queue) >= self.max_batch
                              else "close" if self._closed else "window")
                    batch = self._queue[:self.max_batch]
                    del self._queue[:self.max_batch]
                    for entry in batch:
                        self._by_key.pop(entry.task.key, None)
                    self._set_depth(len(self._queue))
                # Per-cell failures are already error payloads; anything
                # else fails only this batch, never strands its waiters.
                try:
                    self._solve(batch, reason)
                except Exception as exc:  # noqa: BLE001 - fail the batch
                    _LOG.exception("coalesced batch flush failed; "
                                   "delivering error payloads to %d cells",
                                   len(batch))
                    self._fail_batch(batch, exc)

    def close(self) -> None:
        """Drain what is queued; every later batch is labelled "close"."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self.drain()

    @property
    def depth(self) -> int:
        """Cells queued for the next drain."""
        return len(self._queue)

    def stats(self) -> dict[str, Any]:
        """Lifetime batching totals (for benchmarks and capabilities)."""
        with self._lock:
            batches = self._batches
            cells = self._batch_cells
            deduped = self._deduped
            wait = self._wait_seconds
        return {
            "batches": batches,
            "cells": cells,
            "deduped": deduped,
            "mean_batch_cells": cells / batches if batches else 0.0,
            "mean_wait_ms": 1000.0 * wait / cells if cells else 0.0,
        }

    def _solve(self, batch: list[_Pending], reason: str) -> None:
        flushed_at = time.monotonic()
        waited = [flushed_at - entry.enqueued_at for entry in batch]
        self._record_flush(batch, reason, waited)
        values = self._evaluate([entry.task for entry in batch])
        for entry, value in zip(batch, values):
            for waiter, slot in entry.waiters:
                waiter.deliver(slot, value)

    def _evaluate(self, tasks: list[CellTask]) -> list[dict[str, Any]]:
        """Solve cells, record their metrics and cache the solved ones;
        returns the values in task order."""
        by_position: dict[int, dict[str, Any]] = {}
        for positions, group in solve_cells(tasks, self.sim_retries):
            by_position.update(zip(positions, group))
        values = [by_position[i] for i in range(len(tasks))]
        solved: list[tuple[CellTask, dict[str, Any]]] = []
        for task, value in zip(tasks, values):
            if value.get("error") is not None:
                record_failure_metric(self.metrics, task)
            else:
                solved.append((task, value))
        record_solve_metrics_batch(self.metrics, solved)
        if solved and self.cache is not None:
            # Cache before fan-out so a client that re-submits the
            # moment its response lands hits the cache, not the queue.
            # A cache-write failure (disk full, bad --cache path) must
            # not take the values down with it: serve the cells
            # uncached.
            try:
                self.cache.put_many(
                    (task.key, value) for task, value in solved)
                self.cache.flush()
            except OSError:
                _LOG.exception("result-cache write failed; "
                               "serving cells uncached")
        return values

    def _fail_batch(self, batch: list[_Pending], exc: Exception) -> None:
        """Deliver a structured error payload to every waiter of a
        batch whose flush itself died (the same ``{"error": ...}``
        shape a dead cell produces, so callers render it as an error
        row, not a hang)."""
        for entry in batch:
            record_failure_metric(self.metrics, entry.task)
            value: dict[str, Any] = {
                "error": {
                    "type": type(exc).__name__,
                    "message": f"coalesced flush failed: {exc}",
                    "method": entry.task.method,
                },
                "attempts": 1,
                "elapsed_s": 0.0,
            }
            for waiter, slot in entry.waiters:
                waiter.deliver(slot, value)

    # -- metrics ---------------------------------------------------------

    def _count_lookups(self, hits: int, misses: int) -> None:
        if self.metrics is None:
            return
        if hits:
            self.metrics.counter(
                "repro_cache_hits_total",
                "Sweep cells answered from the result cache.").inc(hits)
        if misses:
            self.metrics.counter(
                "repro_cache_misses_total",
                "Sweep cells that required a fresh solve.").inc(misses)

    def _set_depth(self, depth: int) -> None:
        if self.metrics is not None:
            self.metrics.gauge(
                "repro_coalesce_queue_depth",
                "Cells currently queued for the next batch.",
            ).set(depth)

    def _record_flush(self, batch: list[_Pending], reason: str,
                      waited: list[float]) -> None:
        with self._lock:
            self._batches += 1
            self._batch_cells += len(batch)
            self._wait_seconds += sum(waited)
        if self.metrics is None:
            return
        self.metrics.counter(
            "repro_coalesce_flushes_total",
            "Batch flushes by reason.").labels(reason=reason).inc()
        self.metrics.histogram(
            "repro_coalesce_batch_cells",
            "Cells per coalesced batch flush.",
            buckets=DEFAULT_BATCH_BUCKETS).observe(len(batch))
        wait_hist = self.metrics.histogram(
            "repro_coalesce_wait_seconds",
            "How long each cell waited in the coalescing queue.").labels()
        for wait in waited:
            wait_hist.observe(wait)
