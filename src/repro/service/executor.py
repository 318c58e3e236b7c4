"""Parallel sweep executor: cache-aware, deterministic, fault-tolerant.

Turns a :class:`repro.analysis.grid.GridSpec` into an explicit list of
independent :class:`CellTask` work items, answers as many as possible
from the result cache, and fans the rest out over a
``concurrent.futures`` process pool.  Guarantees:

* **Deterministic ordering** -- results come back in task order (the
  seed's protocol -> sharing -> size -> (mva, sim) order), whatever the
  completion order of the pool, so CSV/JSON exports are byte-stable.
* **Per-cell failure isolation** -- a cell that cannot be solved
  becomes an error row (:class:`FailedCell` + ``GridCell.error``)
  instead of killing the sweep; every other cell completes exactly as
  it would in a clean run.  ``strict=True`` restores the historical
  raise-on-first-error behaviour.
* **Self-healing MVA cells** -- a non-converged fixed point is retried
  down the escalating damping ladder (warm-started); recoveries are
  counted in the summary and metrics.
* **Per-cell retry** -- simulation cells that raise are retried with a
  deterministically perturbed seed; the *effective* seed that produced
  the result is recorded in the cached value so a cache hit stays
  traceable.
* **Incremental cache flush** -- every fresh solve (every batch, on
  the batch path) is written to the disk store in its own transaction,
  so an interrupted sweep keeps its completed cells.
* **Graceful serial fallback** -- if the platform cannot spawn worker
  processes (sandboxes, restricted containers) the executor silently
  degrades to in-process serial evaluation with identical results.
* **Selectable MVA engine** -- ``engine="batch"`` routes a sweep's MVA
  cells through the vectorized :mod:`repro.core.batch` solver (one
  fixed point for the whole grid) and falls back to the scalar path if
  the batch engine fails wholesale; cache keys are engine-independent,
  so both engines share entries.
* **Chunked dispatch** -- jobs>1 sweeps default to the sharded sweep
  queue (:mod:`repro.sweepq`): cells are grouped into chunks, each
  chunk solved by one vectorized batch call inside a worker, results
  transported over shared memory instead of per-cell pickles.
  ``dispatch="cells"`` restores the per-cell process pool.

Workers return plain dicts (the ``GridCell`` row plus solve metadata),
which is also exactly what the cache persists, so a cache hit and a
fresh solve are indistinguishable to callers.  A worker never raises:
an unsolvable cell comes back as ``{"error": {...}}`` and is resolved
to an error row (or, under ``strict``, a :class:`CellFailedError`) on
the consumer side.
"""

from __future__ import annotations

import os
import time
from collections.abc import Callable, Sequence
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from typing import Any

from repro.analysis.grid import GridCell, GridSpec
from repro.core.model import CacheMVAModel
from repro.core.solver import FixedPointSolver, SolverError
from repro.protocols.modifications import ProtocolSpec
from repro.service.cache import ResultCache
from repro.service.keys import task_key
from repro.service.metrics import (
    DEFAULT_ITERATION_BUCKETS,
    MetricsRegistry,
)
from repro.sim.config import SimulationConfig
from repro.sim.system import SIM_ENGINES, SimulationResult, simulate
from repro.workload.parameters import (
    ArchitectureParams,
    SharingLevel,
    WorkloadParameters,
    appendix_a_workload,
)

#: Seed perturbation between simulation retry attempts (prime so bumped
#: seeds never collide with the grid's own ``sim_seed + n`` spacing).
_RETRY_SEED_STRIDE = 100_003

#: The MVA evaluation backends an executor can run.
ENGINES = ("scalar", "batch")

#: How a parallel sweep is fanned out: ``auto`` routes jobs>1 through
#: the chunked sweep queue (:mod:`repro.sweepq`), ``cells`` keeps the
#: historical per-cell process pool, ``chunked`` forces the queue.
DISPATCH_MODES = ("auto", "cells", "chunked")


@dataclass(frozen=True)
class CellTask:
    """One independent model evaluation (everything a worker needs)."""

    protocol: ProtocolSpec
    sharing_label: str
    workload: WorkloadParameters
    n: int
    arch: ArchitectureParams = field(default_factory=ArchitectureParams)
    method: str = "mva"  # "mva" | "sim"
    sim_requests: int = 40_000
    sim_seed: int = 1234
    solver: FixedPointSolver = field(default_factory=FixedPointSolver)
    #: DES backend for ``method="sim"`` cells: ``"scalar"`` (the
    #: single-seed reference engine) or ``"vector"`` (the lockstep
    #: multi-replication engine; ``sim_requests`` is then *per
    #: replication* and the cell's CI is the across-replication band).
    sim_engine: str = "scalar"
    #: Replication count for ``sim_engine="vector"`` (seeds are
    #: ``sim_seed + r``); must be 1 on the scalar engine.
    sim_reps: int = 1

    def __post_init__(self) -> None:
        if self.method not in ("mva", "sim"):
            raise ValueError(f"method must be 'mva' or 'sim', got {self.method!r}")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n!r}")
        if self.sim_engine not in SIM_ENGINES:
            raise ValueError(f"sim_engine must be one of {SIM_ENGINES}, "
                             f"got {self.sim_engine!r}")
        if self.sim_reps < 1:
            raise ValueError(f"sim_reps must be >= 1, got {self.sim_reps!r}")
        if self.sim_engine == "scalar" and self.sim_reps != 1:
            raise ValueError("sim_reps > 1 requires sim_engine='vector'")

    @property
    def sim_lanes(self) -> int:
        """Lockstep lanes this cell occupies in a vector-DES pack
        (``sim_reps``), or 0 when it does not run on the vector DES."""
        if self.method == "sim" and self.sim_engine == "vector":
            return self.sim_reps
        return 0

    @property
    def key(self) -> str:
        """Content-addressed cache key of this evaluation (memoized:
        the executor, cache and sweep queue all ask repeatedly)."""
        cached = self.__dict__.get("_key")
        if cached is None:
            cached = task_key(self)
            object.__setattr__(self, "_key", cached)
        return cached


@dataclass(frozen=True)
class FailedCell:
    """The structured record of one cell that could not be solved."""

    index: int
    protocol: str
    sharing: str
    n_processors: int
    method: str
    error_type: str
    message: str
    attempts: int = 1
    #: Damping factors the MVA recovery ladder attempted before giving
    #: up (empty for simulation cells).
    ladder: tuple[float, ...] = ()

    def describe(self) -> str:
        """One line for stderr summaries and logs."""
        ladder = (f" after damping ladder {list(self.ladder)}"
                  if self.ladder else "")
        attempts = (f" ({self.attempts} attempts)"
                    if self.attempts > 1 else "")
        return (f"{self.protocol} {self.sharing} N={self.n_processors} "
                f"[{self.method}]: {self.error_type}: "
                f"{self.message}{ladder}{attempts}")

    def as_dict(self) -> dict[str, Any]:
        return {
            "index": self.index,
            "protocol": self.protocol,
            "sharing": self.sharing,
            "n_processors": self.n_processors,
            "method": self.method,
            "error_type": self.error_type,
            "message": self.message,
            "attempts": self.attempts,
            "ladder": list(self.ladder),
        }


class CellFailedError(RuntimeError):
    """Raised by a ``strict`` sweep on the first unsolvable cell."""

    def __init__(self, failure: FailedCell):
        super().__init__(failure.describe())
        self.failure = failure


def tasks_for_spec(spec: GridSpec,
                   workload_for: Callable[[SharingLevel], WorkloadParameters]
                   = appendix_a_workload) -> list[CellTask]:
    """Expand a grid spec into tasks in the canonical sweep order."""
    tasks: list[CellTask] = []
    for protocol in spec.protocols:
        for level in spec.sharing_levels:
            workload = workload_for(level)
            for n in spec.sizes:
                tasks.append(CellTask(
                    protocol=protocol, sharing_label=level.label,
                    workload=workload, n=n, arch=spec.arch))
                if spec.include_simulation:
                    tasks.append(CellTask(
                        protocol=protocol, sharing_label=level.label,
                        workload=workload, n=n, arch=spec.arch,
                        method="sim", sim_requests=spec.sim_requests,
                        sim_seed=spec.sim_seed + n,
                        sim_engine=spec.sim_engine,
                        sim_reps=spec.sim_reps))
    return tasks


def evaluate_task(task: CellTask) -> dict[str, Any]:
    """Solve one cell; the worker-side unit of the process pool.

    Returns the cache value: the ``GridCell`` row under ``"cell"`` plus
    solve metadata -- ``elapsed_s``; ``iterations``, ``damping``,
    ``recovered`` and ``warnings`` for MVA cells (the recovery-ladder
    diagnostics); ``effective_seed`` for simulation cells (the seed
    that actually produced the sample, which a retry may have bumped).
    """
    started = time.perf_counter()
    if task.method == "mva":
        model = CacheMVAModel(task.workload, task.protocol, arch=task.arch,
                              solver=task.solver)
        report = model.solve(task.n, recovery=True)
        cell = GridCell(
            protocol=task.protocol.label,
            sharing=task.sharing_label,
            n_processors=task.n,
            speedup=report.speedup,
            u_bus=report.u_bus,
            w_bus=report.w_bus,
            cycle_time=report.cycle_time,
            processing_power=report.processing_power,
        )
        return {
            "cell": cell.as_row(),
            "iterations": report.iterations,
            "damping": report.damping,
            "recovered": report.recovered,
            "warnings": [w.as_dict() for w in report.warnings],
            "elapsed_s": time.perf_counter() - started,
        }
    config = sim_config(task)
    if task.sim_engine == "scalar":
        result = simulate(config)
    else:
        result = simulate(config, engine=task.sim_engine,
                          reps=task.sim_reps)
    return _sim_value(task, result, time.perf_counter() - started)


def sim_config(task: CellTask) -> SimulationConfig:
    """The simulation run a ``method="sim"`` cell describes."""
    return SimulationConfig(
        n_processors=task.n, workload=task.workload,
        protocol=task.protocol, arch=task.arch,
        seed=task.sim_seed, measured_requests=task.sim_requests)


def _sim_value(task: CellTask, result: SimulationResult,
               elapsed_s: float) -> dict[str, Any]:
    """The cache value of one simulated cell."""
    cell = GridCell(
        protocol=task.protocol.label,
        sharing=task.sharing_label,
        n_processors=task.n,
        speedup=result.speedup,
        u_bus=result.u_bus,
        w_bus=result.w_bus,
        cycle_time=result.mean_cycle_time,
        processing_power=result.processing_power,
        method="sim",
        sim_ci=result.speedup_ci_halfwidth,
    )
    value: dict[str, Any] = {
        "cell": cell.as_row(),
        "iterations": None,
        "effective_seed": task.sim_seed,
        "elapsed_s": elapsed_s,
    }
    if task.sim_engine != "scalar":
        value["sim_engine"] = task.sim_engine
        value["sim_reps"] = task.sim_reps
    return value


def evaluate_mva_batch(tasks: Sequence[CellTask]) -> list[dict[str, Any]]:
    """Solve many MVA cells with one vectorized fixed point per batch.

    The batched mirror of calling :func:`evaluate_task` on each cell:
    returns the same cache-value dicts, in task order, with the same
    per-cell failure isolation (an unsolvable cell becomes an
    ``{"error": {...}}`` payload carrying the scalar solver's message
    and ladder diagnostics).  Cells are grouped by solver settings --
    one :func:`repro.core.batch.solve_batch` call per distinct solver --
    so heterogeneous task lists stay correct.  ``elapsed_s`` is the
    batch wall-clock amortized over its cells (the quantity the latency
    histogram means under this engine).

    Derivation is grid-wise, not cell-wise: each (workload, protocol,
    arch) combination derives its model inputs once, the Appendix-B
    interference quantities are computed for all of its sizes in one
    pass (:meth:`repro.workload.derived.DerivedInputs
    .cache_interference_many`), and the coefficient vectors feed
    :meth:`repro.core.batch.BatchEquationSystem.from_arrays` directly
    -- no per-cell ``EquationSystem`` objects on this path.
    """
    started = time.perf_counter()
    import numpy as np

    from repro.core.batch import BatchEquationSystem, solve_batch

    count = len(tasks)
    values: list[dict[str, Any] | None] = [None] * count
    model_groups: dict[tuple[Any, ...], list[int]] = {}
    for index, task in enumerate(tasks):
        if task.method != "mva":
            raise ValueError("evaluate_mva_batch only accepts MVA cells, "
                             f"got {task.method!r}")
        model_key = (task.workload, task.protocol, task.arch)
        model_groups.setdefault(model_key, []).append(index)

    arrays = {name: np.empty(count)
              for name in BatchEquationSystem._FIELDS}
    labels: list[str] = [""] * count
    solver_groups: dict[FixedPointSolver, list[int]] = {}
    # Identity memo in front of the value-keyed grouping: task lists
    # usually share one solver instance, and hashing a dataclass per
    # cell costs more than the whole grouping pass.
    solver_memo: dict[int, list[int]] = {}
    for (workload, protocol, arch), indices in model_groups.items():
        try:
            model = CacheMVAModel(workload, protocol, arch=arch)
            inputs = model.inputs
            sizes = [tasks[i].n for i in indices]
            cells_ci = inputs.cache_interference_many(sizes)
        except Exception as exc:  # noqa: BLE001 - isolate bad cells
            elapsed = time.perf_counter() - started
            for index in indices:
                values[index] = _error_payload(tasks[index], exc, 1, elapsed)
            continue
        label = protocol.label
        base = {
            "tau": inputs.workload.tau,
            "t_supply": inputs.arch.t_supply,
            "p_local": inputs.p_local,
            "p_bc": inputs.p_bc,
            "p_rr": inputs.p_rr,
            "t_bc": inputs.t_bc,
            "t_read": inputs.t_read,
            "d_mem": inputs.arch.memory_latency,
            "memory_modules": inputs.arch.memory_modules,
            "memory_ops": inputs.memory_ops_per_request(),
        }
        for name, value in base.items():
            arrays[name][indices] = value
        arrays["n"][indices] = sizes
        arrays["p_interference"][indices] = [ci.p for ci in cells_ci]
        arrays["p_prime"][indices] = [ci.p_prime for ci in cells_ci]
        arrays["t_interference"][indices] = \
            [ci.t_interference for ci in cells_ci]
        for index in indices:
            labels[index] = label
            solver = tasks[index].solver
            group = solver_memo.get(id(solver))
            if group is None:
                group = solver_groups.setdefault(solver, [])
                solver_memo[id(solver)] = group
            group.append(index)

    for solver, indices in solver_groups.items():
        batch_system = BatchEquationSystem.from_arrays(
            {name: column[indices] for name, column in arrays.items()})
        batch = solve_batch(batch_system, solver=solver, traces=False)
        for position, index in enumerate(indices):
            task = tasks[index]
            state = batch.states[position]
            diagnostics = batch.diagnostics[position]
            if not diagnostics.converged:
                exc = SolverError(
                    "fixed point not reached after damping ladder "
                    f"{list(diagnostics.ladder)} ({diagnostics.iterations} "
                    "total sweeps, residual "
                    f"{diagnostics.final_residual:.3e})",
                    diagnostics=diagnostics)
                values[index] = _error_payload(task, exc, 1, 0.0)
                continue
            # The row dict is built directly (field-for-field what
            # ``GridCell.as_row()`` emits, with the measures computed
            # exactly like ``PerformanceReport``) -- the consumer side
            # turns it back into a ``GridCell`` like a cache hit.
            response = state.response
            cycle_time = response.total
            values[index] = {
                "cell": {
                    "protocol": labels[index],
                    "sharing": task.sharing_label,
                    "n_processors": task.n,
                    "speedup": (task.n * (response.tau + response.t_supply)
                                / cycle_time),
                    "u_bus": min(state.u_bus, 1.0),
                    "w_bus": state.w_bus,
                    "cycle_time": cycle_time,
                    "processing_power": task.n * response.tau / cycle_time,
                    "method": "mva",
                    "sim_ci": None,
                    "error": None,
                },
                "iterations": diagnostics.iterations,
                "damping": diagnostics.damping,
                "recovered": diagnostics.recovered,
                "warnings": [w.as_dict() for w in diagnostics.warnings],
                "elapsed_s": 0.0,
            }

    elapsed = time.perf_counter() - started
    share = elapsed / len(tasks) if tasks else 0.0
    for value in values:
        assert value is not None
        if "error" not in value:
            value["elapsed_s"] = share
        value["attempts"] = 1
    return values  # type: ignore[return-value]


def evaluate_sim_pack(tasks: Sequence[CellTask],
                      sim_retries: int) -> list[dict[str, Any]]:
    """Solve many vector-DES cells with one lockstep run per pack.

    The packed mirror of calling :func:`evaluate_with_retry` on each
    cell: returns the same cache-value dicts, in task order, with the
    same ``effective_seed`` and ``attempts: 1`` -- and the same rows,
    because a lane's trajectory depends only on its own seed and cell
    (:mod:`repro.sim.vector`).  Cells are grouped by
    :func:`repro.sim.vector.pack_key`, and each group runs as packs of
    at most :data:`repro.sweepq.chunks.PACK_LANE_CAP` lanes (a wider
    cell runs alone); each value records ``sim_pack_cells``, the number
    of cells that shared its run, and ``elapsed_s`` is that run's
    wall-clock amortized over its cells.  If a packed run raises, its
    cells fall back to the per-cell retrying path, so packing can never
    fail a cell that the per-cell path would have solved.
    """
    from repro.sim.vector import VectorSnoopingBusSimulator, pack_key
    from repro.sweepq.chunks import PACK_LANE_CAP

    values: list[dict[str, Any] | None] = [None] * len(tasks)
    groups: dict[tuple[Any, ...], list[tuple[int, SimulationConfig]]] = {}
    for index, task in enumerate(tasks):
        if not task.sim_lanes:
            raise ValueError("evaluate_sim_pack only accepts vector-DES "
                             f"cells, got {task.method}/{task.sim_engine}")
        try:
            config = sim_config(task)
        except Exception:  # noqa: BLE001 - the per-cell path reports it
            values[index] = evaluate_with_retry(task, sim_retries)
            continue
        groups.setdefault(pack_key(config), []).append((index, config))

    packs: list[list[tuple[int, SimulationConfig]]] = []
    for group in groups.values():
        pack: list[tuple[int, SimulationConfig]] = []
        width = 0
        for index, config in group:
            if pack and width + tasks[index].sim_lanes > PACK_LANE_CAP:
                packs.append(pack)
                pack, width = [], 0
            pack.append((index, config))
            width += tasks[index].sim_lanes
        packs.append(pack)

    for members in packs:
        started = time.perf_counter()
        try:
            results = VectorSnoopingBusSimulator.pack(
                [config for _, config in members],
                [tasks[index].sim_reps for index, _ in members]).run()
        except Exception:  # noqa: BLE001 - pack fallback, not cell errors
            for index, _ in members:
                values[index] = evaluate_with_retry(tasks[index],
                                                    sim_retries)
            continue
        share = (time.perf_counter() - started) / len(members)
        for (index, _), result in zip(members, results):
            value = _sim_value(tasks[index], result.aggregate(), share)
            value["attempts"] = 1
            value["sim_pack_cells"] = len(members)
            values[index] = value
    return values  # type: ignore[return-value]


def _error_payload(task: CellTask, exc: Exception, attempts: int,
                   elapsed_s: float) -> dict[str, Any]:
    """The structured error value a worker returns for a dead cell."""
    info: dict[str, Any] = {
        "type": type(exc).__name__,
        "message": str(exc),
        "method": task.method,
    }
    diagnostics = getattr(exc, "diagnostics", None)
    if diagnostics is not None:  # SolverError carries the ladder record
        info["ladder"] = list(diagnostics.ladder)
        info["iterations"] = diagnostics.iterations
        info["warnings"] = [w.as_dict() for w in diagnostics.warnings]
    return {"error": info, "attempts": attempts, "elapsed_s": elapsed_s}


def evaluate_with_retry(task: CellTask, retries: int) -> dict[str, Any]:
    """Worker entry point: never raises; failures become error payloads.

    Failing *simulation* cells are retried with a deterministically
    perturbed seed so a numerically pathological draw is not replayed
    verbatim; the value records the ``effective_seed`` that produced
    the returned sample.  MVA cells get exactly one attempt here --
    their retry story is the solver's damping ladder inside
    :func:`evaluate_task`, because they are pure functions of the task.

    A cell that exhausts its attempts returns ``{"error": {...}}``
    (type, message, attempts, and the solver's ladder diagnostics when
    available) instead of raising, so one dead cell cannot take down a
    process-pool sweep.
    """
    started = time.perf_counter()
    attempts = retries + 1 if task.method == "sim" else 1
    last_error: Exception | None = None
    for attempt in range(attempts):
        attempt_task = task
        if attempt > 0:
            attempt_task = CellTask(
                protocol=task.protocol, sharing_label=task.sharing_label,
                workload=task.workload, n=task.n, arch=task.arch,
                method=task.method, sim_requests=task.sim_requests,
                sim_seed=task.sim_seed + attempt * _RETRY_SEED_STRIDE,
                solver=task.solver, sim_engine=task.sim_engine,
                sim_reps=task.sim_reps)
        try:
            value = evaluate_task(attempt_task)
        except Exception as exc:  # noqa: BLE001 - isolate failing cells
            last_error = exc
            continue
        value["attempts"] = attempt + 1
        if attempt > 0:
            value["retried_after"] = repr(last_error)
        return value
    assert last_error is not None
    return _error_payload(task, last_error, attempts,
                          time.perf_counter() - started)


@dataclass
class ExecutorSummary:
    """What one sweep cost and where the answers came from."""

    total: int
    solved: int
    cache_hits: int
    retries: int
    wall_seconds: float
    jobs: int
    #: "serial", "chunked", "chunked-inprocess", "process-pool" or
    #: "serial-fallback" (optionally prefixed "batch+" when the sweep's
    #: MVA cells went through the in-process batch engine first).
    mode: str
    failed: int = 0
    recovered: int = 0

    @property
    def cache_hit_rate(self) -> float:
        return self.cache_hits / self.total if self.total else 0.0

    def line(self) -> str:
        """One-line human-readable summary (CLI stderr, bench output)."""
        extras = ""
        if self.recovered:
            extras += f", {self.recovered} recovered"
        if self.failed:
            extras += f", {self.failed} failed"
        return (f"{self.total} cells: {self.solved} solved, "
                f"{self.cache_hits} cached ({self.cache_hit_rate:.0%} hit "
                f"rate), {self.retries} retried{extras}; "
                f"{self.wall_seconds:.3f}s wall, jobs={self.jobs} "
                f"({self.mode})")


@dataclass(frozen=True)
class SweepResult:
    """Cells in task order plus per-cell provenance and the summary."""

    cells: list[GridCell]
    cached: list[bool]
    summary: ExecutorSummary
    #: Structured records of the cells that could not be solved (empty
    #: for a clean sweep); each also appears in ``cells`` as an error
    #: row at its task-order position.
    failures: list[FailedCell] = field(default_factory=list)
    #: Per-cell solve metadata in task order (everything the worker
    #: returned except the row itself: attempts, effective_seed,
    #: iterations, damping ladder diagnostics, ...).
    meta: list[dict[str, Any]] = field(default_factory=list)


def failed_cell(index: int, task: CellTask,
                value: dict[str, Any]) -> FailedCell:
    """The structured failure record for one error-payload value."""
    error = value["error"]
    return FailedCell(
        index=index,
        protocol=task.protocol.label,
        sharing=task.sharing_label,
        n_processors=task.n,
        method=task.method,
        error_type=str(error.get("type", "Exception")),
        message=str(error.get("message", "")),
        attempts=int(value.get("attempts", 1)),
        ladder=tuple(error.get("ladder", ())))


def collect_sweep_result(tasks: Sequence[CellTask],
                         values: dict[int, dict[str, Any]],
                         cached_flags: Sequence[bool], *,
                         wall_seconds: float, jobs: int,
                         mode: str) -> SweepResult:
    """Assemble a :class:`SweepResult` from per-cell worker values.

    The shared consumer-side tail of every dispatch path (serial, pool,
    chunked queue, and the request coalescer): error payloads become
    error rows plus :class:`FailedCell` records, everything else a
    :class:`GridCell`, in task order.
    """
    cells: list[GridCell] = []
    failures: list[FailedCell] = []
    meta: list[dict[str, Any]] = []
    for index, task in enumerate(tasks):
        value = values[index]
        meta.append({k: v for k, v in value.items() if k != "cell"})
        if value.get("error") is not None:
            failure = failed_cell(index, task, value)
            failures.append(failure)
            cells.append(GridCell.failed(
                protocol=task.protocol.label,
                sharing=task.sharing_label,
                n_processors=task.n,
                method=task.method,
                error=f"{failure.error_type}: {failure.message}"))
        else:
            cells.append(GridCell(**value["cell"]))

    fresh = [index for index in range(len(tasks)) if not cached_flags[index]]
    retries = sum(max(values[index].get("attempts", 1) - 1, 0)
                  for index in fresh)
    recovered = sum(1 for index in fresh if values[index].get("recovered"))
    summary = ExecutorSummary(
        total=len(tasks), solved=len(fresh),
        cache_hits=sum(cached_flags), retries=retries,
        wall_seconds=wall_seconds, jobs=jobs, mode=mode,
        failed=len(failures), recovered=recovered)
    return SweepResult(cells=cells, cached=list(cached_flags),
                       summary=summary, failures=failures, meta=meta)


def record_failure_metric(metrics: MetricsRegistry | None,
                          task: CellTask) -> None:
    """Count one dead cell (shared by the executor and the coalescer)."""
    if metrics is None:
        return
    metrics.counter(
        "repro_cells_failed_total",
        "Cells that exhausted every retry/recovery path.",
    ).labels(method=task.method).inc()


def record_solve_metrics(metrics: MetricsRegistry | None, task: CellTask,
                         value: dict[str, Any]) -> None:
    """Record one fresh solve (shared by the executor and the coalescer)."""
    if metrics is None:
        return
    metrics.counter(
        "repro_cells_solved_total",
        "Cells solved fresh (not served from cache).",
    ).labels(method=task.method).inc()
    metrics.histogram(
        "repro_solve_latency_seconds",
        "Per-cell solve wall time.",
    ).labels(method=task.method).observe(value.get("elapsed_s", 0.0))
    attempts = value.get("attempts", 1)
    if attempts > 1:
        metrics.counter(
            "repro_sim_retries_total",
            "Simulation cells that needed retry attempts.",
        ).inc(attempts - 1)
    if value.get("recovered"):
        metrics.counter(
            "repro_cells_recovered_total",
            "MVA cells rescued by the damping ladder.",
        ).inc()
    iterations = value.get("iterations")
    if iterations is not None:
        metrics.histogram(
            "repro_solver_iterations",
            "Fixed-point sweeps to convergence (MVA cells).",
            buckets=DEFAULT_ITERATION_BUCKETS,
        ).observe(iterations)


def record_solve_metrics_batch(
        metrics: MetricsRegistry | None,
        solved: Sequence[tuple[CellTask, dict[str, Any]]]) -> None:
    """Record a whole batch of fresh solves in one pass.

    Same series as :func:`record_solve_metrics` -- a coalesced cell is
    indistinguishable from an executor cell on a dashboard -- but the
    registry/label lookups are paid once per batch instead of once per
    cell, which matters on the coalescer's flusher thread where a batch
    is hundreds of cells.
    """
    if metrics is None or not solved:
        return
    solved_family = metrics.counter(
        "repro_cells_solved_total",
        "Cells solved fresh (not served from cache).")
    latency_family = metrics.histogram(
        "repro_solve_latency_seconds",
        "Per-cell solve wall time.")
    by_method: dict[str, int] = {}
    retries = 0
    recovered = 0
    iteration_values: list[float] = []
    latency_children: dict[str, Any] = {}
    for task, value in solved:
        method = task.method
        by_method[method] = by_method.get(method, 0) + 1
        child = latency_children.get(method)
        if child is None:
            child = latency_children[method] = (
                latency_family.labels(method=method))
        child.observe(value.get("elapsed_s", 0.0))
        retries += max(value.get("attempts", 1) - 1, 0)
        if value.get("recovered"):
            recovered += 1
        iterations = value.get("iterations")
        if iterations is not None:
            iteration_values.append(iterations)
    for method, count in by_method.items():
        solved_family.labels(method=method).inc(count)
    if retries:
        metrics.counter(
            "repro_sim_retries_total",
            "Simulation cells that needed retry attempts.").inc(retries)
    if recovered:
        metrics.counter(
            "repro_cells_recovered_total",
            "MVA cells rescued by the damping ladder.").inc(recovered)
    if iteration_values:
        iteration_hist = metrics.histogram(
            "repro_solver_iterations",
            "Fixed-point sweeps to convergence (MVA cells).",
            buckets=DEFAULT_ITERATION_BUCKETS).labels()
        for iterations in iteration_values:
            iteration_hist.observe(iterations)


class SweepExecutor:
    """Runs cell tasks through the cache and (optionally) a process pool.

    Parameters
    ----------
    jobs:
        Worker process count; ``1`` (default) evaluates serially
        in-process with results identical to the historical
        ``run_grid`` loop.
    cache:
        Optional :class:`ResultCache`; flushed incrementally after
        every fresh solve or batch (an interrupted sweep keeps its
        completed cells) and once more at the end of the sweep.
    metrics:
        Optional :class:`MetricsRegistry` fed with cache hit/miss
        counters, per-cell solve latency, MVA
        iterations-to-convergence histograms and failure/recovery
        counters.
    sim_retries:
        Extra attempts for failing simulation cells (per cell).
    strict:
        If True, the first unsolvable cell raises
        :class:`CellFailedError` (the historical behaviour).  The
        default isolates failures into per-cell error rows.
    engine:
        MVA evaluation backend: ``"scalar"`` (default; per-cell
        fixed-point solves, the historical path) or ``"batch"`` (all
        MVA cells of a sweep solved together by the vectorized
        :mod:`repro.core.batch` engine).  The engine only concerns MVA
        cells: vector-DES cells are always packed into lockstep runs
        (:func:`evaluate_sim_pack`, per chunk on the chunked path) and
        scalar-DES cells always run one at a time.  Cache keys do not
        include the engine, so both engines share cache entries.
    dispatch:
        How jobs>1 sweeps fan out: ``"auto"`` (default) and
        ``"chunked"`` route through the :class:`repro.sweepq.SweepQueue`
        -- cells are sharded into chunks, each solved by one vectorized
        batch call in a worker, results returned over shared memory --
        while ``"cells"`` keeps the historical per-cell process pool.
        Rows are byte-identical either way (``tests/test_determinism``).
    chunk_size:
        Cells per chunk on the chunked path; ``None`` takes the
        queue's default (:meth:`repro.sweepq.SweepQueue.submit`) for
        the capped worker count.
    state_dir:
        Optional persistent directory for the chunked path's journal
        and cache-backed resume; ``None`` (default) uses an ephemeral
        queue per sweep.
    """

    def __init__(self, jobs: int = 1, cache: ResultCache | None = None,
                 metrics: MetricsRegistry | None = None,
                 sim_retries: int = 2, strict: bool = False,
                 engine: str = "scalar", dispatch: str = "auto",
                 chunk_size: int | None = None,
                 state_dir: str | None = None):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs!r}")
        if sim_retries < 0:
            raise ValueError(f"sim_retries must be >= 0, got {sim_retries!r}")
        if engine not in ENGINES:
            raise ValueError(
                f"engine must be one of {ENGINES}, got {engine!r}")
        if dispatch not in DISPATCH_MODES:
            raise ValueError(
                f"dispatch must be one of {DISPATCH_MODES}, got {dispatch!r}")
        self.jobs = jobs
        self.cache = cache
        self.metrics = metrics
        self.sim_retries = sim_retries
        self.strict = strict
        self.engine = engine
        self.dispatch = dispatch
        self.chunk_size = chunk_size
        self.state_dir = state_dir

    # -- public API ------------------------------------------------------

    def run_spec(self, spec: GridSpec,
                 workload_for: Callable[[SharingLevel], WorkloadParameters]
                 = appendix_a_workload) -> SweepResult:
        """Expand ``spec`` and run every cell."""
        return self.run(tasks_for_spec(spec, workload_for))

    def run(self, tasks: Sequence[CellTask]) -> SweepResult:
        """Evaluate ``tasks``; results come back in task order."""
        started = time.perf_counter()
        values: dict[int, dict[str, Any]] = {}
        cached_flags = [False] * len(tasks)
        pending: list[tuple[int, CellTask]] = []
        for index, task in enumerate(tasks):
            hit = self.cache.get(task.key) if self.cache is not None else None
            if hit is not None:
                values[index] = hit
                cached_flags[index] = True
            else:
                pending.append((index, task))
        self._count("repro_cache_hits_total",
                    "Sweep cells answered from the result cache.",
                    sum(cached_flags))
        self._count("repro_cache_misses_total",
                    "Sweep cells that required a fresh solve.", len(pending))

        batch_pending: list[tuple[int, CellTask]] = []
        pending_rest = pending
        if self.engine == "batch":
            batch_pending = [(i, t) for i, t in pending if t.method == "mva"]
            pending_rest = [(i, t) for i, t in pending if t.method != "mva"]

        mode = "serial"
        try:
            if batch_pending:
                self._run_batch(batch_pending, values)
                mode = "batch"
            if pending_rest:
                if self.jobs > 1 and len(pending_rest) > 1:
                    if self.dispatch in ("auto", "chunked"):
                        rest_mode = self._run_chunked(pending_rest, values)
                    else:
                        rest_mode = self._run_parallel(pending_rest, values)
                else:
                    self._run_serial(pending_rest, values)
                    rest_mode = "serial"
                mode = (f"batch+{rest_mode}" if batch_pending else rest_mode)
        finally:
            # Belt and braces: per-solve flushes already persisted every
            # completed cell, but make sure nothing dirty is left behind
            # even when a strict sweep raises mid-flight.
            if self.cache is not None:
                self.cache.flush()

        return collect_sweep_result(
            tasks, values, cached_flags,
            wall_seconds=time.perf_counter() - started,
            jobs=self.jobs, mode=mode)

    # -- internals -------------------------------------------------------

    def _run_batch(self, pending: list[tuple[int, CellTask]],
                   values: dict[int, dict[str, Any]]) -> None:
        """Solve the sweep's MVA cells in one vectorized batch.

        If the batched engine itself dies (not a per-cell failure --
        those come back as error payloads) the cells are re-run through
        the scalar path, so ``engine="batch"`` can never lose a sweep
        that scalar would have completed.
        """
        tasks = [task for _, task in pending]
        try:
            results = evaluate_mva_batch(tasks)
        except Exception:  # noqa: BLE001 - engine fallback, not cell errors
            results = [evaluate_with_retry(task, self.sim_retries)
                       for task in tasks]
        if self.cache is not None:
            # One transaction for the whole batch, not one per cell.
            self.cache.put_many(
                (task.key, value) for task, value in zip(tasks, results)
                if value.get("error") is None)
            self.cache.flush()
        for (index, task), value in zip(pending, results):
            values[index] = self._absorb(task, index, value, store=False)

    def _run_serial(self, pending: list[tuple[int, CellTask]],
                    values: dict[int, dict[str, Any]]) -> None:
        """Evaluate in-process, in task order; the vector-DES cells are
        solved first, packed into lockstep runs by
        :func:`evaluate_sim_pack`."""
        packed = [(index, task) for index, task in pending if task.sim_lanes]
        solved: dict[int, dict[str, Any]] = {}
        if packed:
            solved = dict(zip(
                (index for index, _ in packed),
                evaluate_sim_pack([task for _, task in packed],
                                  self.sim_retries)))
        for index, task in pending:
            value = solved.pop(index, None)
            if value is None:
                value = evaluate_with_retry(task, self.sim_retries)
            values[index] = self._absorb(task, index, value)

    def _run_chunked(self, pending: list[tuple[int, CellTask]],
                     values: dict[int, dict[str, Any]]) -> str:
        """Fan out over the sharded sweep queue (:mod:`repro.sweepq`).

        One ephemeral (or ``state_dir``-persistent) queue per sweep:
        cells are sharded into chunks, each chunk solved by a single
        vectorized batch-engine call inside a worker process, results
        returned through shared memory.  The queue writes fresh solves
        through the executor's cache itself, so ``_absorb`` here only
        records metrics and the strict-mode check.  If the queue dies
        wholesale, the historical per-cell pool finishes the sweep.

        Worker processes are capped at the machine's core count:
        surplus workers on a saturated machine only add fork, journal
        and supervision overhead, while fewer, wider chunks keep the
        vectorized batch solve at full width (the actual win)."""
        tasks = [task for _, task in pending]
        workers = max(1, min(self.jobs, os.cpu_count() or 1))
        queue = None
        try:
            from repro.sweepq import SweepQueue

            queue = SweepQueue(
                state_dir=self.state_dir, cache=self.cache,
                metrics=self.metrics, chunk_size=self.chunk_size,
                sim_retries=self.sim_retries)
            outcome = queue.run_tasks(tasks, workers=workers,
                                      precheck_cache=False)
        except CellFailedError:  # pragma: no cover - queue never raises it
            raise
        except Exception:  # noqa: BLE001 - queue fallback, not cell errors
            return self._run_parallel(pending, values)
        finally:
            if queue is not None:
                queue.close()
        for (index, task), value in zip(pending, outcome.values):
            values[index] = self._absorb(task, index, value, store=False)
        return outcome.mode

    def _run_parallel(self, pending: list[tuple[int, CellTask]],
                      values: dict[int, dict[str, Any]]) -> str:
        """Fan out over a process pool; degrade to serial if the platform
        cannot give us worker processes.  Completed cells land in
        ``values`` (and the cache) as they arrive, so even an aborted
        pool keeps its finished work."""
        tasks_by_index = dict((index, task) for index, task in pending)
        try:
            with ProcessPoolExecutor(max_workers=self.jobs) as pool:
                futures = {
                    pool.submit(evaluate_with_retry, task, self.sim_retries):
                    index for index, task in pending}
                try:
                    for future in as_completed(futures):
                        index = futures[future]
                        values[index] = self._absorb(
                            tasks_by_index[index], index, future.result())
                except CellFailedError:
                    for future in futures:
                        future.cancel()
                    raise
            return "process-pool"
        except (OSError, PermissionError, BrokenExecutor):
            remaining = [(index, task) for index, task in pending
                         if index not in values]
            for index, task in remaining:
                values[index] = self._absorb(
                    task, index, evaluate_with_retry(task, self.sim_retries))
            return "serial-fallback"

    def _absorb(self, task: CellTask, index: int,
                value: dict[str, Any],
                store: bool = True) -> dict[str, Any]:
        """Record one fresh result: metrics, cache (with an incremental
        flush), and the strict-mode failure check.  ``store=False``
        skips the cache write (the caller already persisted the value:
        the chunked queue, or the batch path in one transaction)."""
        if value.get("error") is not None:
            self._record_failure(task)
            if self.strict:
                raise CellFailedError(self._failure(index, task, value))
            return value
        if store and self.cache is not None:
            self.cache.put(task.key, value)
            self.cache.flush()
        self._record_solve(task, value)
        return value

    @staticmethod
    def _failure(index: int, task: CellTask,
                 value: dict[str, Any]) -> FailedCell:
        return failed_cell(index, task, value)

    def _count(self, name: str, help_text: str, amount: int) -> None:
        if self.metrics is not None and amount:
            self.metrics.counter(name, help_text).inc(amount)

    def _record_failure(self, task: CellTask) -> None:
        record_failure_metric(self.metrics, task)

    def _record_solve(self, task: CellTask, value: dict[str, Any]) -> None:
        record_solve_metrics(self.metrics, task, value)
