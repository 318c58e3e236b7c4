"""The resumable sharded sweep queue.

:class:`SweepQueue` owns one state directory holding a
:class:`~repro.sweepq.journal.SweepJournal` (SQLite) plus one
shared-memory :class:`~repro.sweepq.store.ResultStore` file per job.
``submit`` shards a task list into content-addressed chunks and
journals them; ``run`` drives a job to completion with any number of
worker processes and returns every cell value in task order.

Durability story (what survives a kill at any point):

* the **journal** records the chunk table and every lease transition;
* each completed cell is written through the shared
  :class:`repro.service.cache.ResultCache` (flushed once per chunk), so
  a killed-and-restarted sweep answers finished chunks from the cache
  and only re-solves the rest -- ``run`` on an existing job *is* the
  resume operation, there is no separate code path;
* a done chunk whose cached cells were evicted in the meantime is
  detected at resume and silently requeued (``reset_chunk``), so the
  cache is a performance layer, never a correctness dependency.

Within one ``run`` the parent is the **sole cache writer**: workers
write numeric results into the shared store, the parent drains done
chunks into the cache as the journal reports them.  Workers therefore
never contend on the cache file, and a torn cache write cannot happen
mid-sweep.

Determinism: values come back indexed by task position, workers solve
chunks with the same engines the serial executor uses, and the
shared-memory transport is bit-exact -- so row order and bytes are
identical to serial scalar execution regardless of worker count, chunk
size, or crash/resume history (enforced by ``tests/test_determinism.py``).
"""

from __future__ import annotations

import os
import pickle
import tempfile
import threading
import time
import uuid
from dataclasses import dataclass
from multiprocessing import get_all_start_methods, get_context
from pathlib import Path
from typing import Any

from repro.service.cache import ResultCache
from repro.service.metrics import MetricsRegistry
from repro.sweepq.chunks import (
    DEFAULT_CHUNK_SIZE,
    MVA_CHUNK_CAP,
    auto_chunk_size,
    chunk_tasks,
    packed_chunk_size,
)
from repro.sweepq.journal import (
    DONE,
    FAILED,
    ChunkRecord,
    SweepJournal,
)
from repro.sweepq.store import ResultStore
from repro.sweepq.worker import drain_in_process, worker_main

#: Parent supervision poll while workers hold leases.
_SUPERVISE_INTERVAL = 0.05


def _worker_context() -> Any:
    """The multiprocessing context that starts chunk workers.

    A plain fork is cheapest (nothing to re-import) and safe from a
    single-threaded parent such as the CLI.  From a threaded parent --
    the HTTP service runs sweeps on a background thread while other
    threads read the journal and the cache -- another thread may hold
    SQLite's global mutex at the instant of the fork, and the child then
    blocks forever on its first journal query.  Such parents start
    workers from a single-threaded forkserver instead."""
    if (threading.active_count() > 1
            and "forkserver" in get_all_start_methods()):
        ctx = get_context("forkserver")
        ctx.set_forkserver_preload(["repro.sweepq.worker"])
        return ctx
    return get_context()


@dataclass(frozen=True)
class QueueOutcome:
    """Everything ``run`` knows once a job is terminal."""

    job_id: str
    #: Cell values in task order (cache-value dicts; error payloads for
    #: cells of failed chunks).
    values: list[dict[str, Any]]
    #: True where the value was answered without solving in this run
    #: (cache precheck or a previous run's completed chunk).
    cached: list[bool]
    #: Journal progress counters at completion (queued/leased/done/
    #: failed/requeues/recovered plus cell totals).
    counters: dict[str, int]
    mode: str  # "chunked" | "chunked-inprocess"
    workers: int
    wall_seconds: float


class SweepQueue:
    """Journal-backed, resumable, chunk-leasing sweep runner.

    Parameters
    ----------
    state_dir:
        Directory for the journal and result stores.  ``None`` uses a
        private temporary directory (ephemeral queue: still chunked and
        crash-tolerant within the process, but not resumable across
        processes).
    cache:
        Shared :class:`ResultCache`; the durable resume store.  Without
        one, completed work cannot survive a queue restart.
    metrics:
        Optional registry; progress lands in ``repro_sweep_chunks``
        gauges (labelled by state) and recovery counters.
    chunk_size:
        Cells per chunk for new jobs; ``None`` leaves the choice to
        :meth:`submit`'s default policy.
    lease_ttl:
        Seconds a worker lease lives between heartbeats before another
        worker may take the chunk over.
    max_chunk_attempts:
        Leases a chunk may burn before it is marked failed and its
        cells become error rows.
    sim_retries:
        Per-cell retry budget for simulation cells (workers pass it to
        :func:`repro.service.executor.evaluate_with_retry`).
    """

    def __init__(self, state_dir: str | Path | None = None,
                 cache: ResultCache | None = None,
                 metrics: MetricsRegistry | None = None,
                 chunk_size: int | None = None,
                 lease_ttl: float = 15.0,
                 max_chunk_attempts: int = 5,
                 sim_retries: int = 2):
        if lease_ttl <= 0:
            raise ValueError(f"lease_ttl must be > 0, got {lease_ttl!r}")
        if max_chunk_attempts < 1:
            raise ValueError("max_chunk_attempts must be >= 1, "
                             f"got {max_chunk_attempts!r}")
        self._tmp: tempfile.TemporaryDirectory | None = None
        if state_dir is None:
            self._tmp = tempfile.TemporaryDirectory(prefix="repro-sweepq-")
            state_dir = self._tmp.name
        self.state_dir = Path(state_dir)
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self.journal = SweepJournal(self.state_dir / "journal.db")
        self.cache = cache
        self.metrics = metrics
        self.chunk_size = chunk_size
        self.lease_ttl = lease_ttl
        self.max_chunk_attempts = max_chunk_attempts
        self.sim_retries = sim_retries

    def close(self) -> None:
        """Release the journal and drop the private temporary state
        directory, if any."""
        self.journal.close()
        if self._tmp is not None:
            self._tmp.cleanup()
            self._tmp = None

    # -- job lifecycle ---------------------------------------------------

    def submit(self, tasks: list[Any], job_id: str | None = None,
               chunk_size: int | None = None,
               spec_doc: dict[str, Any] | None = None,
               workers: int = 1) -> str:
        """Journal a new job; returns its id.  Chunk layout is fixed
        here and never re-derived (resume sees the identical table).

        This is the one chunk-size policy for every entry point
        (``repro sweep``, :class:`~repro.service.executor.SweepExecutor`
        and ``POST /v1/sweep``).  An explicit ``chunk_size`` (here or
        on the queue) wins; otherwise
        :func:`~repro.sweepq.chunks.packed_chunk_size` gives a sweep
        with vector-DES cells one chunk per worker (each chunk one
        lockstep pack of at most
        :data:`~repro.sweepq.chunks.PACK_LANE_CAP` lanes); any other
        sweep gets :func:`~repro.sweepq.chunks.auto_chunk_size`'s ~4
        chunks per worker, capped at
        :data:`~repro.sweepq.chunks.MVA_CHUNK_CAP` for MVA-only tasks
        and :data:`~repro.sweepq.chunks.DEFAULT_CHUNK_SIZE` otherwise."""
        if not tasks:
            raise ValueError("cannot submit an empty task list")
        job_id = job_id or uuid.uuid4().hex[:12]
        size = chunk_size or self.chunk_size
        if not size:
            lanes = [task.sim_lanes for task in tasks]
            if any(lanes):
                size = packed_chunk_size(lanes, workers)
            else:
                mva_only = all(task.method == "mva" for task in tasks)
                size = auto_chunk_size(
                    len(tasks), workers,
                    cap=MVA_CHUNK_CAP if mva_only else DEFAULT_CHUNK_SIZE)
        chunks = chunk_tasks(tasks, size)
        self.journal.create_job(job_id, pickle.dumps(tasks), chunks,
                                chunk_size=size, spec=spec_doc)
        return job_id

    def tasks_for(self, job_id: str) -> list[Any]:
        """The job's task list, exactly as submitted (canonical order)."""
        return pickle.loads(self.journal.load_tasks(job_id))

    def progress(self, job_id: str) -> dict[str, Any]:
        """Journal counters plus job state, for status endpoints."""
        job = self.journal.get_job(job_id)
        counters = self.journal.counters(job_id)
        return {"job_id": job_id, "state": job.state,
                "chunk_size": job.chunk_size,
                "total_cells": job.total_cells, **counters}

    # -- running ---------------------------------------------------------

    def run_tasks(self, tasks: list[Any], workers: int = 1,
                  chunk_size: int | None = None,
                  precheck_cache: bool = True) -> QueueOutcome:
        """``submit`` + ``run`` in one call (the executor's entry)."""
        job_id = self.submit(tasks, chunk_size=chunk_size, workers=workers)
        return self.run(job_id, workers=workers,
                        precheck_cache=precheck_cache, _tasks=tasks)

    def run(self, job_id: str, workers: int = 1, chaos_kill: int = 0,
            precheck_cache: bool = True,
            _tasks: list[Any] | None = None) -> QueueOutcome:
        """Drive ``job_id`` to a terminal state and collect every value.

        Calling ``run`` on a partially finished job resumes it: done
        chunks are answered from the result cache (requeued if evicted)
        and only the remainder is solved.  ``chaos_kill`` marks that
        many workers to SIGKILL themselves after their first claim --
        the fault-injection hook used by tests and the CI smoke job.
        """
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers!r}")
        started = time.perf_counter()
        # ``_tasks`` skips the journal round-trip when the caller just
        # submitted the job and still holds the canonical task list.
        tasks = _tasks if _tasks is not None else self.tasks_for(job_id)
        self.journal.set_job_state(job_id, "running")
        values: dict[int, dict[str, Any]] = {}
        cached_flags = [False] * len(tasks)
        drained: set[int] = set()

        self._resume_done_chunks(job_id, tasks, values, cached_flags,
                                 drained)
        if precheck_cache:
            self._precheck(job_id, tasks, values, cached_flags, drained)
        self._publish_progress(job_id)

        mode = "chunked-inprocess"
        store: ResultStore | None = None
        if self.journal.unfinished(job_id) > 0:
            store = ResultStore.create(self._store_path(job_id), len(tasks))
            try:
                if workers > 1 or chaos_kill > 0:
                    mode = self._run_workers(job_id, tasks, store, workers,
                                             chaos_kill, values, drained)
                else:
                    self._drain_in_process(job_id, tasks, store)
                self._drain(job_id, tasks, store, values, drained)
            finally:
                store.close()

        self._absorb_failed_chunks(job_id, tasks, values)
        self.journal.set_job_state(job_id, "done")
        self._publish_progress(job_id)
        missing = [i for i in range(len(tasks)) if i not in values]
        if missing:  # pragma: no cover - journal/state invariant breach
            raise RuntimeError(
                f"job {job_id}: {len(missing)} cells missing after drain")
        return QueueOutcome(
            job_id=job_id,
            values=[values[i] for i in range(len(tasks))],
            cached=cached_flags,
            counters=self.journal.counters(job_id),
            mode=mode, workers=workers,
            wall_seconds=time.perf_counter() - started)

    def process_chunks(self, job_id: str, limit: int) -> dict[str, int]:
        """Drain up to ``limit`` chunks in-process, persisting results
        to the cache, then stop.  Simulates an interrupted run (tests)
        and supports incremental draining of very large jobs."""
        tasks = self.tasks_for(job_id)
        store = ResultStore.create(self._store_path(job_id), len(tasks))
        try:
            self._drain_in_process(job_id, tasks, store, max_chunks=limit)
            self._drain(job_id, tasks, store, values={}, drained=set())
        finally:
            store.close()
        return self.journal.counters(job_id)

    # -- internals -------------------------------------------------------

    def _store_path(self, job_id: str) -> Path:
        return self.state_dir / f"{job_id}.results"

    def _drain_in_process(self, job_id: str, tasks: list[Any],
                          store: ResultStore,
                          max_chunks: int | None = None) -> int:
        """Run the worker loop in this process (serial path, platform
        fallback, bounded drains), with leases of at least an hour."""
        return drain_in_process(
            self.journal, job_id, tasks, store,
            lease_ttl=max(self.lease_ttl, 3600.0),
            sim_retries=self.sim_retries,
            max_attempts=self.max_chunk_attempts, max_chunks=max_chunks)

    def _cached_chunk(self, tasks: list[Any],
                      chunk: ChunkRecord) -> list[dict[str, Any]] | None:
        """Every cell value of ``chunk`` from the cache, or ``None``
        if any of them is missing."""
        if self.cache is None:
            return None
        hits: list[dict[str, Any]] = []
        for index in range(chunk.start, chunk.stop):
            hit = self.cache.get(tasks[index].key)
            if hit is None:
                return None
            hits.append(hit)
        return hits

    def _resume_done_chunks(self, job_id: str, tasks: list[Any],
                            values: dict[int, dict[str, Any]],
                            cached_flags: list[bool],
                            drained: set[int]) -> None:
        """Answer previously completed chunks from the cache; requeue
        any whose cached cells were evicted."""
        for chunk in self.journal.chunk_rows(job_id):
            if chunk.state != DONE:
                continue
            hits = self._cached_chunk(tasks, chunk)
            if hits is None:
                self.journal.reset_chunk(job_id, chunk.index)
                continue
            for index, hit in zip(range(chunk.start, chunk.stop), hits):
                values[index] = hit
                cached_flags[index] = True
            drained.add(chunk.index)

    def _precheck(self, job_id: str, tasks: list[Any],
                  values: dict[int, dict[str, Any]],
                  cached_flags: list[bool], drained: set[int]) -> None:
        """Complete queued chunks whose cells are all cache-answered.

        All-or-nothing per chunk: a partial hit still solves the whole
        chunk (the batch engine makes the marginal cells nearly free,
        and chunk state stays binary)."""
        if self.cache is None:
            return
        for chunk in self.journal.chunk_rows(job_id):
            if chunk.state != "queued":
                continue
            hits = self._cached_chunk(tasks, chunk)
            if hits is None:
                continue
            if self.journal.mark_done_cached(job_id, chunk.index):
                for index, hit in zip(range(chunk.start, chunk.stop),
                                      hits):
                    values[index] = hit
                    cached_flags[index] = True
                drained.add(chunk.index)

    def _run_workers(self, job_id: str, tasks: list[Any],
                     store: ResultStore, workers: int, chaos_kill: int,
                     values: dict[int, dict[str, Any]],
                     drained: set[int]) -> str:
        """Spawn worker processes and supervise them to completion.

        Dead workers (chaos or genuine) are respawned while the job has
        unfinished chunks, up to a bounded budget; past the budget the
        parent drains the remainder in-process, so ``run`` terminates
        even on a platform that keeps killing children."""
        ctx = _worker_context()
        try:
            procs = []
            for rank in range(workers):
                procs.append(self._spawn(ctx, job_id, store, len(tasks),
                                         rank, chaos_kill=rank < chaos_kill))
        except (OSError, PermissionError):
            # The platform cannot give us processes at all: solve
            # everything in the parent instead.
            self._drain_in_process(job_id, tasks, store)
            return "chunked-inprocess"

        respawn_budget = 2 * workers + 2
        rank = workers
        try:
            while self.journal.unfinished(job_id) > 0:
                self._drain(job_id, tasks, store, values, drained)
                self._publish_progress(job_id)
                procs = [p for p in procs if p.is_alive()]
                if not procs:
                    if respawn_budget <= 0:
                        # Children keep dying: finish in the parent so
                        # the sweep still terminates deterministically.
                        self._drain_in_process(job_id, tasks, store)
                        break
                    respawn_budget -= 1
                    try:
                        procs.append(self._spawn(ctx, job_id, store,
                                                 len(tasks), rank))
                    except (OSError, PermissionError):
                        respawn_budget = 0
                    rank += 1
                    continue
                time.sleep(_SUPERVISE_INTERVAL)
        finally:
            for proc in procs:
                proc.join(timeout=5.0)
                if proc.is_alive():  # pragma: no cover - stuck worker
                    proc.terminate()
                    proc.join(timeout=5.0)
        return "chunked"

    def _spawn(self, ctx: Any, job_id: str, store: ResultStore,
               n_cells: int, rank: int, chaos_kill: bool = False) -> Any:
        proc = ctx.Process(
            target=worker_main,
            args=(str(self.journal.path), job_id, str(store.path), n_cells,
                  f"worker-{os.getpid()}-{rank}", self.lease_ttl,
                  self.sim_retries, self.max_chunk_attempts, chaos_kill),
            daemon=True)
        proc.start()
        return proc

    def _drain(self, job_id: str, tasks: list[Any], store: ResultStore,
               values: dict[int, dict[str, Any]],
               drained: set[int]) -> None:
        """Pull newly completed chunks out of the shared store: decode
        each cell, write it through the cache (one flush per chunk)."""
        for chunk in self.journal.chunk_rows(job_id):
            if chunk.state != DONE or chunk.index in drained:
                continue
            if chunk.source != "worker":
                continue
            extras = chunk.extras or {}
            for index in range(chunk.start, chunk.stop):
                value = store.read(index, tasks[index],
                                   extras.get(str(index)))
                values[index] = value
                if self.cache is not None and value.get("error") is None:
                    self.cache.put(tasks[index].key, value)
            if self.cache is not None:
                self.cache.flush()
            drained.add(chunk.index)

    def _absorb_failed_chunks(self, job_id: str, tasks: list[Any],
                              values: dict[int, dict[str, Any]]) -> None:
        """Failed chunks become per-cell error payloads (the executor
        resolves them to error rows exactly like a dead cell)."""
        for chunk in self.journal.chunk_rows(job_id):
            if chunk.state != FAILED:
                continue
            message = chunk.error or "chunk abandoned"
            for index in range(chunk.start, chunk.stop):
                values[index] = {
                    "error": {
                        "type": "ChunkFailedError",
                        "message": message,
                        "method": tasks[index].method,
                    },
                    "attempts": chunk.attempts,
                    "elapsed_s": 0.0,
                }

    def _publish_progress(self, job_id: str) -> None:
        if self.metrics is None:
            return
        counters = self.journal.counters(job_id)
        gauge = self.metrics.gauge(
            "repro_sweep_chunks",
            "Chunk states of the most recently progressed sweep job.")
        for state in ("queued", "leased", "done", "failed"):
            gauge.labels(state=state).set(counters[state])
        self.metrics.gauge(
            "repro_sweep_cells_done",
            "Cells completed in the most recently progressed sweep job.",
        ).set(counters["cells_done"])
        self.metrics.gauge(
            "repro_sweep_chunks_recovered",
            "Done chunks that needed a lease takeover (crash recovery).",
        ).set(counters["recovered"])
