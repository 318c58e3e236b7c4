"""Transport-agnostic model-evaluation service facade.

:class:`ModelService` owns one cache, one metrics registry and one
executor configuration, and exposes the four operations the HTTP layer
(and any future transport) maps onto:

* :meth:`solve`   -- one or more MVA solutions for a named protocol;
* :meth:`grid`    -- a full (protocols x sharing x N) sweep;
* :meth:`sweep`   -- submit an asynchronous sharded sweep (``/v1``);
* :meth:`sweep_status` -- poll a submitted sweep's progress counters;
* :meth:`verify`  -- the in-process verification suite (``/v1`` only);
* :meth:`health`  -- liveness payload;
* :meth:`metrics_text` -- the Prometheus exposition.

Request bodies are parsed by the typed schemas in
:mod:`repro.service.schema` (shared by the ``/v1`` and legacy
endpoints); parsing raises :class:`ServiceError` with an HTTP-ish
status code and a stable error ``code``, so transports translate
errors uniformly.  ``strict=True`` -- the ``/v1`` behaviour --
additionally rejects unknown top-level request fields.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any

from repro import __version__
from repro.service.cache import ResultCache
from repro.service.coalesce import DEFAULT_MAX_BATCH, SolveCoalescer
from repro.service.executor import (
    CellTask,
    SweepExecutor,
    collect_sweep_result,
    tasks_for_spec,
)
from repro.service.keys import prime_task_keys
from repro.service.metrics import MetricsRegistry
from repro.service.schema import (
    ENGINES,
    GridRequest,
    ServiceError,
    SolveRequest,
    SweepRequest,
    VerifyRequest,
    require,
)

#: POST /grid sweeps are bounded so one request cannot monopolise the
#: service (raise via ``max_grid_cells`` for trusted deployments).
DEFAULT_MAX_GRID_CELLS = 4096


@dataclass
class _SweepJob:
    """One submitted async sweep and its background runner state."""

    job_id: str
    workers: int
    submitted_at: float
    state: str = "running"  # "running" | "done" | "failed"
    error: str | None = None
    outcome: Any = None
    thread: threading.Thread | None = field(default=None, repr=False)


class ModelService:
    """One cache + metrics + executor configuration behind the API.

    The executor picks the MVA engine for every request.  ``engine``
    is deprecated and ignored (one of :data:`ENGINES` is still
    required); health and capabilities report its historical default,
    ``"scalar"``, until the field's sunset.
    """

    def __init__(self, cache: ResultCache | None = None, jobs: int = 1,
                 metrics: MetricsRegistry | None = None,
                 max_grid_cells: int = DEFAULT_MAX_GRID_CELLS,
                 engine: str = "scalar",
                 sweep_state_dir: str | None = None,
                 coalescer: SolveCoalescer | None = None):
        if engine not in ENGINES:
            raise ValueError(
                f"engine must be one of {ENGINES}, got {engine!r}")
        self.cache = cache if cache is not None else ResultCache()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.jobs = jobs
        self.max_grid_cells = max_grid_cells
        self.sweep_state_dir = sweep_state_dir
        self.coalescer = coalescer
        self.started_at = time.time()
        self._sweep_queue: Any = None
        self._sweep_jobs: dict[str, _SweepJob] = {}
        self._sweep_lock = threading.Lock()

    @classmethod
    def with_coalescer(cls, cache: ResultCache | None = None,
                       max_batch: int = DEFAULT_MAX_BATCH,
                       **kwargs: Any) -> "ModelService":
        """A service whose ``/v1/solve`` cells go through a
        :class:`SolveCoalescer` sharing its cache and metrics."""
        cache = cache if cache is not None else ResultCache()
        metrics = kwargs.pop("metrics", None) or MetricsRegistry()
        coalescer = SolveCoalescer(cache=cache, metrics=metrics,
                                   max_batch=max_batch)
        return cls(cache=cache, metrics=metrics, coalescer=coalescer,
                   **kwargs)

    def close(self) -> None:
        """Drain the coalescer (if any) and flush the cache."""
        if self.coalescer is not None:
            self.coalescer.close()
        self.cache.flush()

    def _sweepq(self) -> Any:
        """The service's one sweep queue, created on first use (lazy:
        most deployments never touch the async endpoints)."""
        with self._sweep_lock:
            if self._sweep_queue is None:
                from repro.sweepq import SweepQueue
                self._sweep_queue = SweepQueue(
                    state_dir=self.sweep_state_dir, cache=self.cache,
                    metrics=self.metrics)
            return self._sweep_queue

    def _executor(self, jobs: int | None = None) -> SweepExecutor:
        return SweepExecutor(jobs=jobs if jobs is not None else self.jobs,
                             cache=self.cache, metrics=self.metrics)

    # -- operations ------------------------------------------------------

    def health(self) -> dict[str, Any]:
        """Liveness payload for ``GET /healthz``."""
        return {
            "status": "ok",
            "version": __version__,
            "engine": "scalar",  # deprecated, see ENGINES
            "uptime_seconds": round(time.time() - self.started_at, 3),
            "cache_entries": len(self.cache),
            "cache_hit_rate": round(self.cache.stats.hit_rate, 6),
        }

    def metrics_text(self) -> str:
        """The Prometheus exposition for ``GET /metrics``."""
        return self.metrics.render()

    def solve(self, payload: Any, strict: bool = False) -> dict[str, Any]:
        """Evaluate the MVA for one protocol at one or more sizes.

        See :class:`repro.service.schema.SolveRequest` for the request
        schema.  With a :class:`SolveCoalescer` attached the cells join
        the shared micro-batching queue and this thread blocks until
        they are solved, draining the queue itself unless another
        drain answers first; the response is identical either way.
        """
        request, tasks = self.solve_prepare(payload, strict=strict)
        if self.coalescer is None:
            result = self._executor(jobs=1).run(tasks)
            return self.solve_response(request, result)
        started = time.perf_counter()
        future, cached_flags = self.coalescer.submit_request(tasks)
        values = self.coalescer.result(future)
        result = collect_sweep_result(
            tasks, dict(enumerate(values)), cached_flags,
            wall_seconds=time.perf_counter() - started,
            jobs=1, mode="coalesced")
        return self.solve_response(request, result)

    def solve_prepare(self, payload: Any, strict: bool = False
                      ) -> tuple[SolveRequest, list[CellTask]]:
        """Parse a solve request into its cell tasks (shared by the
        blocking path above and the asyncio front-end, which awaits the
        coalescer futures instead of blocking a thread on them)."""
        request = SolveRequest.from_payload(payload, strict=strict)
        tasks = [CellTask(protocol=request.protocol,
                          sharing_label=request.sharing.label,
                          workload=request.workload, n=n, arch=request.arch)
                 for n in request.sizes]
        # One request's cells differ only in n: derive every cache key
        # from one shared-component lookup instead of one per cell.
        prime_task_keys(tasks)
        return request, tasks

    def solve_response(self, request: SolveRequest,
                       result: Any) -> dict[str, Any]:
        """Render one solve outcome (raises on total failure)."""
        self._reject_total_failure(result)
        return {
            "protocol": request.protocol.label,
            "sharing": request.sharing.label,
            "results": self._cell_rows(result),
            "failures": [f.as_dict() for f in result.failures],
            "summary": self._summary_dict(result.summary),
        }

    def grid(self, payload: Any, strict: bool = False) -> dict[str, Any]:
        """Run a sweep; the HTTP face of ``repro grid``.

        See :class:`repro.service.schema.GridRequest` for the request
        schema.
        """
        request = GridRequest.from_payload(payload, strict=strict)
        require(request.cell_count <= self.max_grid_cells,
                f"grid of {request.cell_count} cells exceeds the "
                f"per-request limit of {self.max_grid_cells}",
                code="grid-too-large")
        result = self._executor(jobs=request.jobs).run_spec(request.spec())
        self._reject_total_failure(result)
        return {
            "cells": self._cell_rows(result),
            "failures": [f.as_dict() for f in result.failures],
            "summary": self._summary_dict(result.summary),
        }

    def sweep(self, payload: Any, strict: bool = False) -> dict[str, Any]:
        """Submit an asynchronous sharded sweep; returns a job handle.

        See :class:`repro.service.schema.SweepRequest` for the request
        schema.  The sweep runs on a background thread through the
        :class:`repro.sweepq.SweepQueue` (chunk leases, worker
        processes, crash recovery); poll :meth:`sweep_status` for
        progress.  Solved cells land in this service's shared result
        cache, so a ``/v1/grid`` request for the same cells after
        completion is answered entirely from cache.
        """
        request = SweepRequest.from_payload(payload, strict=strict)
        require(request.cell_count <= self.max_grid_cells,
                f"sweep of {request.cell_count} cells exceeds the "
                f"per-request limit of {self.max_grid_cells}",
                code="grid-too-large")
        workers = request.workers if request.workers is not None \
            else max(self.jobs, 1)
        queue = self._sweepq()
        tasks = tasks_for_spec(request.spec())
        job_id = queue.submit(tasks, chunk_size=request.chunk_size,
                              workers=workers)
        job = _SweepJob(job_id=job_id, workers=workers,
                        submitted_at=time.time())
        job.thread = threading.Thread(
            target=self._run_sweep, args=(job,), daemon=True)
        with self._sweep_lock:
            self._sweep_jobs[job_id] = job
        job.thread.start()
        progress = queue.progress(job_id)
        return {
            "job_id": job_id,
            "state": "running",
            "workers": workers,
            "cells": progress["total_cells"],
            "chunks": progress["chunks"],
            "chunk_size": progress["chunk_size"],
            "status_path": f"/v1/sweep/{job_id}",
        }

    def _run_sweep(self, job: _SweepJob) -> None:
        try:
            job.outcome = self._sweepq().run(job.job_id,
                                             workers=job.workers)
            job.state = "done"
        except Exception as exc:  # noqa: BLE001 - surfaced via status
            job.error = f"{type(exc).__name__}: {exc}"
            job.state = "failed"

    def sweep_status(self, job_id: str) -> dict[str, Any]:
        """Progress counters for one submitted sweep job.

        Counters come straight from the queue journal
        (queued/leased/done/failed chunks, requeues, recovered), so a
        poll during a crash-recovery window shows the takeover as it
        happens.
        """
        from repro.sweepq import UnknownJobError
        with self._sweep_lock:
            job = self._sweep_jobs.get(job_id)
        try:
            progress = self._sweepq().progress(job_id)
        except UnknownJobError:
            raise ServiceError(404, f"unknown sweep job {job_id!r}",
                               code="unknown-job") from None
        status: dict[str, Any] = {
            "job_id": job_id,
            "state": job.state if job is not None else progress["state"],
            "cells": progress["total_cells"],
            "chunk_size": progress["chunk_size"],
            "chunks": {key: progress[key] for key in
                       ("chunks", "queued", "leased", "done", "failed")},
            "cells_done": progress["cells_done"],
            "cells_failed": progress["cells_failed"],
            "requeues": progress["requeues"],
            "recovered": progress["recovered"],
            "workers_used": progress["workers_used"],
        }
        if job is not None:
            status["workers"] = job.workers
            status["elapsed_seconds"] = round(
                time.time() - job.submitted_at, 3)
            if job.error is not None:
                status["error"] = job.error
            if job.outcome is not None:
                status["mode"] = job.outcome.mode
                status["wall_seconds"] = round(job.outcome.wall_seconds, 6)
        return status

    def capabilities(self) -> dict[str, Any]:
        """``GET /v1/capabilities``: what this deployment can do, so
        clients negotiate instead of sniffing error messages."""
        from repro.service.router import (
            API_VERSION,
            GET_ROUTES,
            MAX_BODY_BYTES,
            POST_ROUTES,
        )
        coalesce: dict[str, Any] = {"enabled": self.coalescer is not None}
        if self.coalescer is not None:
            coalesce["max_batch"] = self.coalescer.max_batch
        return {
            "api_version": API_VERSION,
            "version": __version__,
            "engines": list(ENGINES),  # deprecated with the field
            "default_engine": "scalar",
            "coalesce": coalesce,
            "limits": {
                "max_grid_cells": self.max_grid_cells,
                "max_body_bytes": MAX_BODY_BYTES,
            },
            "endpoints": {
                "get": [f"/{API_VERSION}{route}" for route in GET_ROUTES]
                       + [f"/{API_VERSION}/sweep/{{job_id}}"],
                "post": [f"/{API_VERSION}{route}" for route in POST_ROUTES],
            },
        }

    def list_jobs(self) -> dict[str, Any]:
        """``GET /v1/jobs``: every async job this service has accepted
        (currently sweep submissions), oldest first, with progress."""
        from repro.sweepq import UnknownJobError
        with self._sweep_lock:
            entries = list(self._sweep_jobs.values())
        rows: list[dict[str, Any]] = []
        for job in sorted(entries, key=lambda item: item.submitted_at):
            row: dict[str, Any] = {
                "job_id": job.job_id,
                "kind": "sweep",
                "state": job.state,
                "workers": job.workers,
                "elapsed_seconds": round(time.time() - job.submitted_at, 3),
                "status_path": f"/v1/sweep/{job.job_id}",
            }
            if job.error is not None:
                row["error"] = job.error
            try:
                progress = self._sweepq().progress(job.job_id)
            except UnknownJobError:  # pragma: no cover - journal pruned
                progress = None
            if progress is not None:
                row["cells"] = progress["total_cells"]
                row["cells_done"] = progress["cells_done"]
                row["cells_failed"] = progress["cells_failed"]
            rows.append(row)
        return {"jobs": rows, "count": len(rows)}

    def verify(self, payload: Any, strict: bool = False) -> dict[str, Any]:
        """Run the verification suite; the HTTP face of ``repro verify``.

        See :class:`repro.service.schema.VerifyRequest` for the request
        schema.  Violations are *data*, not errors: a run that finds
        them still returns 200 with ``ok: false`` and the structured
        violation records; only a malformed request or an internal
        failure is an error.  Every run also feeds this service's
        ``repro_verify_checks_total`` / ``repro_verify_violations_total``
        counters.
        """
        request = VerifyRequest.from_payload(payload, strict=strict)
        # Imported lazily: repro.verify pulls in the simulator and the
        # stress corners, which the service does not otherwise need.
        from repro.verify.runner import run_verify
        report = run_verify(tier=request.tier, metrics=self.metrics)
        return report.as_dict()

    # -- response assembly -----------------------------------------------

    @staticmethod
    def _cell_rows(result: Any) -> list[dict[str, Any]]:
        """Per-cell rows with status: values, ``cached`` flag, ``error``
        for failed cells, and solve provenance (``attempts`` /
        ``effective_seed``) where it differs from the default."""
        rows = []
        for value, was_cached, meta in zip(result.cells, result.cached,
                                           result.meta):
            row = dict(value.as_row(), cached=was_cached,
                       status="error" if value.error else "ok")
            if meta.get("attempts", 1) > 1:
                row["attempts"] = meta["attempts"]
            if meta.get("effective_seed") is not None:
                row["effective_seed"] = meta["effective_seed"]
            if meta.get("recovered"):
                row["recovered"] = True
                row["damping"] = meta.get("damping")
            rows.append(row)
        return rows

    @staticmethod
    def _reject_total_failure(result: Any) -> None:
        """Per-cell failures are part of a 200 response; only a sweep
        with *no* surviving cell is a request-level error."""
        summary = result.summary
        if summary.total and summary.failed == summary.total:
            raise ServiceError(
                500, f"all {summary.total} cells failed",
                details={"failures": [f.as_dict()
                                      for f in result.failures]},
                code="all-cells-failed")

    @staticmethod
    def _summary_dict(summary: Any) -> dict[str, Any]:
        return {
            "total": summary.total,
            "solved": summary.solved,
            "cache_hits": summary.cache_hits,
            "cache_hit_rate": round(summary.cache_hit_rate, 6),
            "retries": summary.retries,
            "failed": summary.failed,
            "recovered": summary.recovered,
            "wall_seconds": round(summary.wall_seconds, 6),
            "jobs": summary.jobs,
            "mode": summary.mode,
        }
