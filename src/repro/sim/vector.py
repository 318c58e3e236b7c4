"""Lockstep multi-replication DES: many lanes advanced as NumPy arrays.

:class:`VectorSnoopingBusSimulator` runs independent replications of
the Figure 2.1 snooping-bus system *in lockstep*.  Its state is laid
out along a **lane axis**: one lane per (cell, replication) pair, where
a *cell* is one :class:`~repro.sim.config.SimulationConfig` and a
*pack* is the list of cells that share one run.  Event times,
processor/cache/bus/memory occupancy and the Welford/batch-means
accumulators are ``(lanes,)`` (or ``(lanes, N)``) arrays, and every
"tick" advances each still-active lane by exactly its own next event
-- the minimum of its bus-completion time and its per-processor timers,
with the bus winning ties exactly like the scalar engine's priority
classes.  One tick therefore costs a fixed number of small vectorized
NumPy operations regardless of how many lanes ride along, which is
where the >=10x throughput over running
:class:`~repro.sim.system.SnoopingBusSimulator` once per seed comes
from, and why packing many cells into one run pays (see
``benchmarks/bench_sim.py``).

Each cell's model constants -- the reference-mix probabilities and
fractions, ``tau``, ``t_bc``, ``t_supply``, the block/read cycle
counts, the cache-to-cache / broadcast-updates-memory / read-contention
flags and the processor count -- are per-lane parameters gathered from
that cell's :func:`~repro.workload.derived.derive_inputs`.  Processor
state is padded to the pack's largest N; a padded processor holds an
``inf`` timer and is never drawn, snooped or summed.  What the loop
keeps pack-wide (:func:`pack_key`: warm-up and measurement windows,
batch count, memory modules and latency) must match across a pack;
:func:`simulate_pack` splits a mixed list into as many packs as it
needs.

The scalar simulator stays the semantic reference.  The vector engine
reproduces its *timing semantics* -- the same broadcast / remote-read
service decompositions, snoop-holder sampling, cache busy-until polling
with poll-retry, warm-up reset and batch-means bookkeeping -- but it
does **not** replay the scalar engine's random streams bit-for-bit
(the scalar draws via ziggurat exponentials, rejection-sampled
``choice`` and per-processor spawned generators; the vector engine
draws fixed-width uniforms from one buffered stream per lane), and it
applies each request's completion bookkeeping in the tick where the
completion time becomes causally determined, which can run a few
events ahead of interleaved bus traffic near the warm-up and stop
boundaries.  The promise is therefore *statistical* equivalence,
enforced by the scalar-vs-vector section of ``repro verify`` (see
docs/validation.md for the tolerance table).  What *is* bit-promised:
a lane's trajectory depends only on its own seed and its own cell, so
permuting one cell's ``seeds`` permutes that cell's rows and nothing
else, and a cell's rows are bit-identical whether it runs alone or
packed with any other cells.  Two rules keep that true: every draw
sized by N takes exactly the lane's own N uniforms, and every
reduction over the processor axis sees only the lane's own columns.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np
from scipy import stats as _scipy_stats

from repro.protocols.modifications import Modification
from repro.sim.config import SimulationConfig
from repro.sim.system import SNOOP_ACTION_CYCLES, SimulationResult
from repro.workload.derived import DerivedInputs, derive_inputs
from repro.workload.streams import RequestKind

#: Processor phases in the lockstep state machine (int8 codes).
_EXEC, _POLL, _BUSY, _DONE = 0, 1, 2, 3

#: Request-kind codes; index into :data:`_KINDS`.
_KINDS = (RequestKind.LOCAL, RequestKind.BROADCAST, RequestKind.REMOTE_READ)

#: The scalar cache controller's "already free" slack (cache.py).
_EPS = 1e-12


class _UniformLanes:
    """One buffered uniform stream per lane.

    Each lane owns an independent ``np.random.Generator`` seeded from
    its own entry in ``seeds``; draws are served from a per-lane buffer
    refilled in amortized chunks.  A lane's refill size depends only on
    its own widest draw (``widths``), exactly as in a one-cell run, so
    the uniforms it consumes -- and the ones a refill discards -- are a
    pure function of its seed and its cell.  Each buffer row carries
    ``max(widths)`` columns of slack past the lane's chunk so a ragged
    draw (:meth:`take_ragged`) never reads outside its own row.
    """

    def __init__(self, seeds: Sequence[int], widths: np.ndarray):
        self._gens = [np.random.default_rng(s) for s in seeds]
        chunks = np.maximum(4096, 8 * widths)
        self._chunks = chunks
        first = int(chunks[0])
        #: The refill limit: one scalar when every lane agrees (no
        #: gather per draw), else the per-lane array.
        self._limit = (first if bool((chunks == first).all())
                       else chunks)
        self._stride = int(chunks.max()) + int(widths.max())
        n = len(self._gens)
        self._buf = np.zeros((n, self._stride), dtype=np.float64)
        for lane, gen in enumerate(self._gens):
            self._buf[lane, :chunks[lane]] = gen.random(chunks[lane])
        self._flat = self._buf.ravel()
        self._pos = np.zeros(n, dtype=np.int64)
        self._aranges: dict[int, np.ndarray] = {}

    def _advance(self, rows: np.ndarray, width: Any) -> np.ndarray:
        """Refill any lane whose buffer cannot serve ``width`` more
        uniforms; returns the rows' read positions."""
        pos = self._pos
        p = pos[rows]
        limit = self._limit
        if isinstance(limit, np.ndarray):
            limit = limit[rows]
        over = p + width > limit
        if over.any():
            for lane in rows[over]:
                chunk = self._chunks[lane]
                self._buf[lane, :chunk] = self._gens[lane].random(chunk)
                pos[lane] = 0
            p = pos[rows]
        return p

    def _offsets(self, width: int) -> np.ndarray:
        offs = self._aranges.get(width)
        if offs is None:
            offs = self._aranges[width] = np.arange(width)
        return offs

    def take(self, rows: np.ndarray, width: int) -> np.ndarray:
        """Draw ``width`` uniforms from each lane in ``rows``.

        Returns shape ``(len(rows),)`` when ``width == 1`` else
        ``(len(rows), width)``.
        """
        p = self._advance(rows, width)
        base = rows * self._stride + p
        if width == 1:
            out = self._flat[base]
        else:
            out = self._flat[base[:, None] + self._offsets(width)]
        self._pos[rows] = p + width
        return out

    def take_ragged(self, rows: np.ndarray, widths: np.ndarray,
                    width: int) -> np.ndarray:
        """Draw ``widths[i]`` uniforms from lane ``rows[i]``, padded.

        Returns shape ``(len(rows), width)``; a row's columns past its
        own width read 1.0, which no ``u < p`` test with ``p <= 1``
        accepts, and consume nothing from the lane's stream.
        """
        p = self._advance(rows, widths)
        offs = self._offsets(width)
        out = self._flat[(rows * self._stride + p)[:, None] + offs]
        out[offs >= widths[:, None]] = 1.0
        self._pos[rows] = p + widths
        return out


def _lane_param(values: Sequence[Any], counts: Sequence[int]) -> Any:
    """One per-cell constant spread over the lane axis.

    Returns the plain scalar when every cell agrees, which saves a
    gather at each use; otherwise the ``(lanes,)`` array.  Either form
    feeds the same IEEE operations, so results do not depend on it.
    """
    first = values[0]
    if all(value == first for value in values):
        return first
    return np.repeat(np.asarray(values), counts)


def _at(param: Any, rows: np.ndarray) -> Any:
    """A lane parameter for the listed rows (scalar passes through)."""
    return param[rows] if isinstance(param, np.ndarray) else param


def _col(param: Any, rows: np.ndarray) -> Any:
    """:func:`_at` as a column, to broadcast against ``(rows, N)``."""
    return (param[rows][:, None] if isinstance(param, np.ndarray)
            else param)


def pack_key(config: SimulationConfig) -> tuple[Any, ...]:
    """The fields one pack shares: the lockstep loop keeps them
    pack-wide, so cells that differ in any of them run separately."""
    arch = config.arch
    return (config.warmup_requests, config.measured_requests,
            config.n_batches, arch.memory_modules, arch.memory_latency)


@dataclass(frozen=True)
class PackCell:
    """One cell of a pack: its config, seeds, inputs and lane slice."""

    config: SimulationConfig
    seeds: tuple[int, ...]
    inputs: DerivedInputs
    #: The cell's lanes are ``[lo, hi)`` on the pack's lane axis.
    lo: int
    hi: int

    @property
    def reps(self) -> int:
        """The cell's replication (lane) count."""
        return self.hi - self.lo


def _wadd(count: np.ndarray, mean: np.ndarray, m2: np.ndarray,
          rows: np.ndarray, values: np.ndarray | float) -> None:
    """Vectorized Welford update; each row receives one sample."""
    if rows.size == 0:
        return
    count[rows] += 1
    delta = values - mean[rows]
    mean[rows] += delta / count[rows]
    m2[rows] += delta * (values - mean[rows])


def _wmean(count: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """Welford mean with the scalar accumulator's empty -> 0 rule."""
    return np.where(count > 0, mean, 0.0)


def _wstd(count: np.ndarray, m2: np.ndarray) -> np.ndarray:
    """Welford sample standard deviation (0 below two samples)."""
    with np.errstate(invalid="ignore", divide="ignore"):
        var = np.where(count > 1, m2 / np.maximum(count - 1, 1), 0.0)
    return np.sqrt(np.maximum(var, 0.0))


@dataclass(frozen=True)
class VectorSimulationResult:
    """Per-replication estimates from one lockstep run.

    Every statistical field is a ``(reps,)`` NumPy array aligned with
    ``seeds``; :meth:`replication` materializes one row as the scalar
    engine's :class:`~repro.sim.system.SimulationResult`, and
    :meth:`aggregate` folds the rows into a single MVA-comparable
    result whose confidence interval comes from the across-replication
    spread (the "multi-seed band").
    """

    n_processors: int
    protocol_label: str
    sharing_label: str
    seeds: tuple[int, ...]
    requests_measured: np.ndarray
    elapsed_cycles: np.ndarray
    mean_cycle_time: np.ndarray
    speedup: np.ndarray
    speedup_ci_halfwidth: np.ndarray
    processing_power: np.ndarray
    u_bus: np.ndarray
    u_mem: np.ndarray
    w_bus: np.ndarray
    w_bus_stddev: np.ndarray
    q_bus_seen: np.ndarray
    mean_interference_wait: np.ndarray
    bus_transactions: np.ndarray
    #: Per-kind response means / sample counts, shape ``(3, reps)`` in
    #: :data:`_KINDS` order (LOCAL, BROADCAST, REMOTE_READ).
    response_means: np.ndarray
    response_counts: np.ndarray

    @property
    def n_replications(self) -> int:
        """Number of lockstep replications in this result."""
        return len(self.seeds)

    def _response_dict(self, rep: int) -> dict[str, float]:
        return {k.value: float(self.response_means[j, rep])
                for j, k in enumerate(_KINDS)
                if self.response_counts[j, rep] > 0}

    def replication(self, rep: int) -> SimulationResult:
        """One replication's estimates as a scalar-engine result."""
        return SimulationResult(
            n_processors=self.n_processors,
            protocol_label=self.protocol_label,
            sharing_label=self.sharing_label,
            requests_measured=int(self.requests_measured[rep]),
            elapsed_cycles=float(self.elapsed_cycles[rep]),
            mean_cycle_time=float(self.mean_cycle_time[rep]),
            speedup=float(self.speedup[rep]),
            speedup_ci_halfwidth=float(self.speedup_ci_halfwidth[rep]),
            processing_power=float(self.processing_power[rep]),
            u_bus=float(self.u_bus[rep]),
            u_mem=float(self.u_mem[rep]),
            w_bus=float(self.w_bus[rep]),
            w_bus_stddev=float(self.w_bus_stddev[rep]),
            q_bus_seen=float(self.q_bus_seen[rep]),
            mean_interference_wait=float(self.mean_interference_wait[rep]),
            bus_transactions=int(self.bus_transactions[rep]),
            response_by_kind=self._response_dict(rep),
        )

    @property
    def speedup_band_halfwidth(self) -> float:
        """95% t-CI half-width of the mean speedup across replications.

        This is the multi-seed band the MVA-vs-DES oracle checks
        against; it needs at least two replications (0.0 otherwise).
        """
        reps = self.n_replications
        if reps < 2:
            return 0.0
        t_crit = float(_scipy_stats.t.ppf(0.975, df=reps - 1))
        return t_crit * float(np.std(self.speedup, ddof=1)) / math.sqrt(reps)

    def aggregate(self) -> SimulationResult:
        """Fold all replications into one MVA-comparable result.

        Point estimates are unweighted means across replications (each
        replication measured the same number of requests), the CI
        half-width is the across-replication band, and
        ``requests_measured`` / ``bus_transactions`` are totals.
        """
        reps = self.n_replications
        if reps == 1:
            return self.replication(0)
        responses: dict[str, float] = {}
        for j, k in enumerate(_KINDS):
            weight = int(self.response_counts[j].sum())
            if weight > 0:
                responses[k.value] = float(
                    (self.response_means[j] * self.response_counts[j]).sum()
                    / weight)
        # The aggregate speedup is re-derived from the aggregated cycle
        # time so the speedup identity (speedup == N (tau + T_supply) / R,
        # a verified sim-stats law) holds for the folded result too --
        # the mean of per-replication speedups would not satisfy it.
        mean_cycle = float(self.mean_cycle_time.mean())
        ideal = float((self.speedup * self.mean_cycle_time).mean()
                      / self.n_processors)
        speedup = (self.n_processors * ideal / mean_cycle
                   if mean_cycle > 0.0 else 0.0)
        return SimulationResult(
            n_processors=self.n_processors,
            protocol_label=self.protocol_label,
            sharing_label=self.sharing_label,
            requests_measured=int(self.requests_measured.sum()),
            elapsed_cycles=float(self.elapsed_cycles.mean()),
            mean_cycle_time=mean_cycle,
            speedup=speedup,
            speedup_ci_halfwidth=self.speedup_band_halfwidth,
            processing_power=float(self.processing_power.mean()),
            u_bus=float(self.u_bus.mean()),
            u_mem=float(self.u_mem.mean()),
            w_bus=float(self.w_bus.mean()),
            w_bus_stddev=float(self.w_bus_stddev.mean()),
            q_bus_seen=float(self.q_bus_seen.mean()),
            mean_interference_wait=float(
                self.mean_interference_wait.mean()),
            bus_transactions=int(self.bus_transactions.sum()),
            response_by_kind=responses,
        )

    def summary(self) -> str:
        """One-line digest of the aggregate estimates."""
        agg = self.aggregate()
        return (f"{agg.protocol_label} N={agg.n_processors} "
                f"({agg.sharing_label} sharing, "
                f"{self.n_replications} reps): "
                f"speedup={agg.speedup:.3f}"
                f"±{agg.speedup_ci_halfwidth:.3f} "
                f"U_bus={agg.u_bus:.3f} w_bus={agg.w_bus:.3f} "
                f"[{agg.requests_measured} requests]")


class VectorSnoopingBusSimulator:
    """Discrete-event model advancing many lanes in lockstep.

    Mirrors :class:`~repro.sim.system.SnoopingBusSimulator` event for
    event within each lane -- FCFS bus, dual-directory cache busy-until
    horizons with poll-retry, interleaved memory modules, warm-up reset
    and batch-means CI -- while storing every piece of state as a NumPy
    array indexed by lane.  ``VectorSnoopingBusSimulator(config, reps)``
    is a pack of one cell; :meth:`pack` builds a pack of many.
    ``reps`` is the pack's lane count and ``config`` its first cell's
    config (whose :func:`pack_key` fields every cell shares).
    """

    def __init__(self, config: SimulationConfig, reps: int,
                 seeds: Sequence[int] | None = None):
        self._setup([config], [reps], [seeds])

    @classmethod
    def pack(cls, configs: Sequence[SimulationConfig],
             reps: Sequence[int],
             seeds: Sequence[Sequence[int] | None] | None = None,
             ) -> VectorSnoopingBusSimulator:
        """A pack of ``configs``, ``reps[i]`` lanes for cell ``i``.

        ``seeds[i]`` defaults (as for a single cell) to
        ``configs[i].seed + r`` for replication ``r``.
        """
        simulator = cls.__new__(cls)
        simulator._setup(configs, reps,
                         seeds if seeds is not None
                         else [None] * len(configs))
        return simulator

    def _setup(self, configs: Sequence[SimulationConfig],
               reps: Sequence[int],
               seeds: Sequence[Sequence[int] | None]) -> None:
        if not configs:
            raise ValueError("a pack needs at least one cell")
        if not len(configs) == len(reps) == len(seeds):
            raise ValueError("need one reps count and one seeds entry "
                             "per config")
        shared = pack_key(configs[0])
        cells: list[PackCell] = []
        lo = 0
        for config, count, cell_seeds in zip(configs, reps, seeds):
            if count < 1:
                raise ValueError(f"reps must be >= 1, got {count!r}")
            if config.bus_discipline.value != "fcfs":
                raise ValueError(
                    "the vector engine models FCFS bus service only; use "
                    "the scalar engine for random-order runs")
            if pack_key(config) != shared:
                raise ValueError(
                    "cells in one pack must share warm-up, measured "
                    "requests, batch count and memory modules/latency; "
                    "use simulate_pack to split them")
            if cell_seeds is None:
                cell_seeds = tuple(int(config.seed) + r
                                   for r in range(count))
            else:
                cell_seeds = tuple(int(s) for s in cell_seeds)
                if len(cell_seeds) != count:
                    raise ValueError(
                        f"need exactly {count} seeds, got {len(cell_seeds)}")
            inputs = derive_inputs(
                config.effective_workload, config.arch,
                config.protocol.mod_numbers,
                holder_probability=(config.holder_probability
                                    if config.holder_probability is not None
                                    else 0.5))
            cells.append(PackCell(config, cell_seeds, inputs, lo,
                                  lo + count))
            lo += count
        self.cells = tuple(cells)
        self.config = configs[0]
        self.reps = lo
        self.seeds = tuple(s for cell in cells for s in cell.seeds)

    # -- per-lane constants --------------------------------------------

    def _constants(self) -> dict[str, Any]:
        """Every per-cell model constant, spread over the lane axis.

        The values are computed exactly as a one-cell run computes its
        scalars, so a packed lane sees the same floats.
        """
        rows: dict[str, list[Any]] = {}

        def put(name: str, value: Any) -> None:
            rows.setdefault(name, []).append(value)

        for cell in self.cells:
            inputs, cfg = cell.inputs, cell.config
            arch, workload = cfg.arch, inputs.workload
            put("n", cfg.n_processors)
            put("n_less1", cfg.n_processors - 1)
            put("p_local", inputs.p_local)
            put("p_loc_bc", inputs.p_local + inputs.p_bc)
            if inputs.p_rr > 0.0:
                sr_frac, sw_frac = inputs.sr_miss_frac, inputs.sw_miss_frac
            else:
                sr_frac = sw_frac = 0.0
            put("sr_frac", sr_frac)
            put("srsw_frac", sr_frac + sw_frac)
            sw_bc = inputs.mix.sw_broadcast(inputs.mods)
            put("bc_shared_frac",
                sw_bc / inputs.p_bc if inputs.p_bc > 0.0 else 0.0)
            put("csupply_sro", workload.csupply_sro)
            put("csupply_sw", workload.csupply_sw)
            put("wb_csupply", workload.wb_csupply)
            put("p_reqwb_rr", inputs.p_reqwb_rr)
            put("hp", inputs.holder_probability)
            put("tau", workload.tau)
            put("t_supply", arch.t_supply)
            put("t_bc", inputs.t_bc)
            put("bc_mem", bool(inputs.bc_updates_memory))
            put("t_block", arch.block_transfer_cycles)
            put("base_read", arch.base_read_cycles)
            put("cache_supply", arch.cache_supply_cycles)
            put("c2c",
                Modification.CACHE_TO_CACHE_SUPPLY.value in inputs.mods)
            put("contention", bool(cfg.model_read_memory_contention))
        counts = [cell.reps for cell in self.cells]
        return {name: _lane_param(values, counts)
                for name, values in rows.items()}

    # -- the lockstep event loop ---------------------------------------

    def run(self) -> list[VectorSimulationResult]:
        """Run warm-up plus measurement in every lane; one result per
        cell, in pack order."""
        cfg = self.config
        reps = self.reps
        k = self._constants()
        p_local, p_loc_bc = k["p_local"], k["p_loc_bc"]
        sr_frac, srsw_frac = k["sr_frac"], k["srsw_frac"]
        bc_shared_frac = k["bc_shared_frac"]
        csupply_sro, csupply_sw = k["csupply_sro"], k["csupply_sw"]
        wb_csupply, p_reqwb_rr = k["wb_csupply"], k["p_reqwb_rr"]
        hp, tau, t_supply, t_bc = k["hp"], k["tau"], k["t_supply"], k["t_bc"]
        t_block, base_read = k["t_block"], k["base_read"]
        cache_supply, c2c = k["cache_supply"], k["c2c"]
        n_less1 = k["n_less1"]

        def per_lane(param: Any) -> np.ndarray:
            """A lane parameter as a ``(lanes,)`` array, even if scalar."""
            return np.broadcast_to(np.asarray(param), (reps,))

        lane_n, lane_tau = per_lane(k["n"]), per_lane(tau)
        # Flags as lane masks, with pack-wide any/all shortcuts.
        bc_mem, contention = per_lane(k["bc_mem"]), per_lane(k["contention"])
        any_bc_mem, all_bc_mem = bool(bc_mem.any()), bool(bc_mem.all())
        any_contention = bool(contention.any())
        multi = lane_n > 1
        any_multi, all_multi = bool(multi.any()), bool(multi.all())
        tau_pos = lane_tau > 0.0
        all_tau_pos = bool(tau_pos.all())

        n = int(lane_n.max())
        # Cells of different N: N-sized draws take ragged widths.
        ragged = isinstance(k["n"], np.ndarray)
        n_modules, mem_latency = cfg.arch.memory_modules, cfg.arch.memory_latency
        warmup, target = cfg.warmup_requests, cfg.measured_requests
        n_batches = cfg.n_batches
        batch_size = target // n_batches
        batch_take = batch_size * n_batches

        lanes = _UniformLanes(self.seeds, np.maximum(5, lane_n))
        rrange = np.arange(reps)
        rbase = rrange * n
        inf = np.inf

        # Per-(lane, proc) state, padded to the pack's largest N.  The
        # ``*_f`` aliases are flat views: indexing one ``(lane, proc)``
        # pair costs a single fancy index on ``lane * n + proc`` instead
        # of a 2-D advanced index.
        proc_state = np.full((reps, n), _EXEC, dtype=np.int8)
        proc_time = np.where(np.arange(n) < lane_n[:, None], 0.0, inf)
        cycle_start = np.zeros((reps, n), dtype=np.float64)
        fire_time = np.zeros((reps, n), dtype=np.float64)
        kind = np.zeros((reps, n), dtype=np.int8)
        f_shared = np.zeros((reps, n), dtype=bool)
        f_csup = np.zeros((reps, n), dtype=bool)
        f_supwb = np.zeros((reps, n), dtype=bool)
        f_reqwb = np.zeros((reps, n), dtype=bool)
        cache_until = np.zeros((reps, n), dtype=np.float64)
        state_f = proc_state.ravel()
        ptime_f = proc_time.ravel()
        cstart_f = cycle_start.ravel()
        fire_f = fire_time.ravel()
        kind_f = kind.ravel()
        cache_f = cache_until.ravel()

        # Per-lane bus: one in-service slot plus an FCFS ring of size n
        # (at least the lane's own N, so FIFO order is the same).
        bus_current = np.full(reps, -1, dtype=np.int32)
        bus_until = np.full(reps, inf, dtype=np.float64)
        bus_start = np.zeros(reps, dtype=np.float64)
        queue_buf = np.zeros((reps, n), dtype=np.int32)
        q_head = np.zeros(reps, dtype=np.int32)
        q_len = np.zeros(reps, dtype=np.int32)

        mem_until = np.zeros((reps, n_modules), dtype=np.float64)

        # Per-lane measurement machinery.
        measuring = np.full(reps, warmup == 0, dtype=bool)
        measure_start = np.zeros(reps, dtype=np.float64)
        completed = np.zeros(reps, dtype=np.int64)
        measured = np.zeros(reps, dtype=np.int64)
        end_time = np.zeros(reps, dtype=np.float64)
        done = np.zeros(reps, dtype=bool)

        cw_count = np.zeros(reps, dtype=np.int64)
        cw_mean = np.zeros(reps, dtype=np.float64)
        cw_m2 = np.zeros(reps, dtype=np.float64)
        batch_sums = np.zeros((reps, n_batches), dtype=np.float64)
        wb_count = np.zeros(reps, dtype=np.int64)
        wb_mean = np.zeros(reps, dtype=np.float64)
        wb_m2 = np.zeros(reps, dtype=np.float64)
        sq_count = np.zeros(reps, dtype=np.int64)
        sq_mean = np.zeros(reps, dtype=np.float64)
        sq_m2 = np.zeros(reps, dtype=np.float64)
        if_count = np.zeros(reps, dtype=np.int64)
        if_mean = np.zeros(reps, dtype=np.float64)
        if_m2 = np.zeros(reps, dtype=np.float64)
        resp_count = np.zeros((3, reps), dtype=np.int64)
        resp_mean = np.zeros((3, reps), dtype=np.float64)
        bus_busy = np.zeros(reps, dtype=np.float64)
        bus_tx = np.zeros(reps, dtype=np.int64)
        mem_busy = np.zeros(reps, dtype=np.float64)
        busy_cycles = np.zeros(reps, dtype=np.float64)

        resp_count_f = resp_count.ravel()
        resp_mean_f = resp_mean.ravel()

        def draw_bursts(rows: np.ndarray) -> np.ndarray:
            """Exponential execution bursts, one per listed lane (a lane
            with ``tau <= 0`` draws nothing and bursts for 0)."""
            if all_tau_pos:
                return -_at(tau, rows) * np.log1p(-lanes.take(rows, 1))
            bursts = np.zeros(rows.size, dtype=np.float64)
            pos = tau_pos[rows]
            if pos.any():
                rpos = rows[pos]
                bursts[pos] = (-lane_tau[rpos]
                               * np.log1p(-lanes.take(rpos, 1)))
            return bursts

        def draw_holders(rows: np.ndarray) -> np.ndarray:
            """Snoop-holder samples: the lane's own N uniforms each, as
            an ``(rows, n)`` bool mask (padded processors never hold)."""
            if ragged:
                u = lanes.take_ragged(rows, lane_n[rows], n)
            else:
                u = lanes.take(rows, n)
            return u < _col(hp, rows)

        def memory_write(rows: np.ndarray, at: np.ndarray) -> np.ndarray:
            """Occupy one random module per row; returns the bus wait."""
            mods_pick = (lanes.take(rows, 1) * n_modules).astype(np.int64)
            start = np.maximum(at, mem_until[rows, mods_pick])
            mem_until[rows, mods_pick] = start + mem_latency
            mem_busy[rows[measuring[rows]]] += mem_latency
            return start - at

        # Initial execution bursts (one per processor per lane), drawn
        # and summed per processor count so each lane reads and sums
        # exactly its own N columns.
        for width in np.unique(lane_n).tolist():
            rows = np.flatnonzero((lane_n == width) & tau_pos)
            if rows.size:
                bursts0 = -lane_tau[rows][:, None] * np.log1p(
                    -lanes.take(rows, width).reshape(rows.size, width))
                proc_time[rows, :width] = bursts0
                busy_cycles[rows] = np.where(measuring[rows],
                                             bursts0.sum(axis=1), 0.0)

        # A tick advances each active lane by one event, so the tick
        # count is bounded by the busiest lane's event count; the
        # generous cap below only trips on a genuine bug (lost event /
        # non-advancing clock), never on a slow run.
        tick_limit = 400 * (warmup + target + 16 * n + 64)
        tick = 0
        active = reps

        while active > 0:
            tick += 1
            if tick > tick_limit:
                raise RuntimeError(
                    f"vector DES exceeded {tick_limit} ticks with "
                    f"{active} replications still live; event state is "
                    "corrupt (overflow guard)")

            pi = np.argmin(proc_time, axis=1)
            pt = ptime_f[rbase + pi]
            ebus = bus_until <= pt
            now_all = np.where(ebus, bus_until, pt)
            act = np.isfinite(now_all)
            if not act.any():
                raise RuntimeError(
                    "vector DES deadlock: live replications but no "
                    "finite pending event")

            grant_r: list[np.ndarray] = []
            grant_q: list[np.ndarray] = []
            grant_t: list[np.ndarray] = []
            # Requests whose completion time became determined this
            # tick: (lane, flat lane*n+proc index, completion time).
            comp_r: list[np.ndarray] = []
            comp_f: list[np.ndarray] = []
            comp_t: list[np.ndarray] = []

            # -- bus completions (priority over processor events) ------
            rb = np.flatnonzero(ebus & act)
            if rb.size:
                tb = bus_until[rb]
                qb = bus_current[rb]
                meas_b = measuring[rb]
                rbm = rb[meas_b]
                bus_busy[rbm] += (tb[meas_b]
                                  - np.maximum(bus_start[rbm],
                                               measure_start[rbm]))
                bus_tx[rbm] += 1
                # The cache answers the processor one supply cycle
                # later; that completion has no further interactions,
                # so it is folded into this tick's completion batch.
                comp_r.append(rb)
                comp_f.append(rb * n + qb)
                comp_t.append(tb + _at(t_supply, rb))
                has_next = q_len[rb] > 0
                rn = rb[has_next]
                if rn.size:
                    nq = queue_buf[rn, q_head[rn]]
                    q_head[rn] = (q_head[rn] + 1) % n
                    q_len[rn] -= 1
                    grant_r.append(rn)
                    grant_q.append(nq)
                    grant_t.append(tb[has_next])
                ridle = rb[~has_next]
                bus_current[ridle] = -1
                bus_until[ridle] = inf

            # -- processor events --------------------------------------
            rp = np.flatnonzero(act & ~ebus)
            if rp.size:
                ip = pi[rp]
                tp = pt[rp]
                fp = rp * n + ip
                st = state_f[fp]

                # fire: sample the outcome and route the request
                fire = st == _EXEC
                rf = rp[fire]
                if rf.size:
                    ff = fp[fire]
                    tf = tp[fire]
                    u = lanes.take(rf, 5)
                    u0, u1 = u[:, 0], u[:, 1]
                    kf = np.where(u0 < _at(p_local, rf), 0,
                                  np.where(u0 < _at(p_loc_bc, rf), 1, 2)
                                  ).astype(np.int8)
                    kind_f[ff] = kf
                    fire_f[ff] = tf

                    islocal = kf == 0
                    rl = rf[islocal]
                    if rl.size:
                        fl = ff[islocal]
                        tl = tf[islocal]
                        cu = cache_f[fl]
                        free = tl + _EPS >= cu
                        rs = rl[free]
                        if rs.size:
                            fsv = fl[free]
                            _wadd(if_count, if_mean, if_m2,
                                  rs[measuring[rs]], 0.0)
                            start = np.maximum(tl[free], cu[free])
                            cache_f[fsv] = start + _at(t_supply, rs)
                            comp_r.append(rs)
                            comp_f.append(fsv)
                            comp_t.append(start + _at(t_supply, rs))
                        rw = rl[~free]
                        if rw.size:
                            fw = fl[~free]
                            state_f[fw] = _POLL
                            ptime_f[fw] = cu[~free]

                    tobus = ~islocal
                    rq = rf[tobus]
                    if rq.size:
                        fq = ff[tobus]
                        tq = tf[tobus]
                        # Resolve the sharing flags only for the bus
                        # subset; local requests never read them.
                        kq = kf[tobus]
                        u1q = u1[tobus]
                        isbc = kq == 1
                        shared = np.where(
                            isbc, u1q < _at(bc_shared_frac, rq), False)
                        sr = ~isbc & (u1q < _at(sr_frac, rq))
                        sw = ~isbc & ~sr & (u1q < _at(srsw_frac, rq))
                        shared |= sr | sw
                        csp = np.where(sr, _at(csupply_sro, rq),
                                       np.where(sw, _at(csupply_sw, rq),
                                                0.0))
                        csupf = shared & ~isbc & (u[tobus, 2] < csp)
                        supwbf = csupf & (u[tobus, 3] < _at(wb_csupply, rq))
                        reqwbf = ~isbc & (u[tobus, 4] < _at(p_reqwb_rr, rq))
                        f_shared.ravel()[fq] = shared
                        f_csup.ravel()[fq] = csupf
                        f_supwb.ravel()[fq] = supwbf
                        f_reqwb.ravel()[fq] = reqwbf
                        seen = (q_len[rq]
                                + (bus_current[rq] >= 0)).astype(np.float64)
                        mq = measuring[rq]
                        _wadd(sq_count, sq_mean, sq_m2, rq[mq], seen[mq])
                        state_f[fq] = _BUSY
                        ptime_f[fq] = inf
                        idle = bus_current[rq] < 0
                        if idle.any():
                            grant_r.append(rq[idle])
                            grant_q.append((fq[idle] % n).astype(np.int32))
                            grant_t.append(tq[idle])
                        rpush = rq[~idle]
                        if rpush.size:
                            slot = (q_head[rpush] + q_len[rpush]) % n
                            queue_buf[rpush, slot] = fq[~idle] % n
                            q_len[rpush] += 1

                # poll: retry a local request against the snoop horizon
                poll = st == _POLL
                rv = rp[poll]
                if rv.size:
                    fv = fp[poll]
                    tv = tp[poll]
                    cu = cache_f[fv]
                    again = tv + _EPS < cu
                    fa = fv[again]
                    if fa.size:
                        ptime_f[fa] = cu[again]
                    rs = rv[~again]
                    if rs.size:
                        fsv = fv[~again]
                        ts = tv[~again]
                        waits = ts - fire_f[fsv]
                        mv = measuring[rs]
                        _wadd(if_count, if_mean, if_m2, rs[mv], waits[mv])
                        start = np.maximum(ts, cache_f[fsv])
                        cache_f[fsv] = start + _at(t_supply, rs)
                        comp_r.append(rs)
                        comp_f.append(fsv)
                        comp_t.append(start + _at(t_supply, rs))

            # -- bus grants: compute service, occupy memory, snoop -----
            # Grants run before the completion batch, mirroring the
            # scalar bus (Bus.complete starts the next transaction
            # before the finished request's callback runs); a lane
            # stopped by a completion below then freezes over any bus
            # service granted this tick.
            if grant_r:
                r_g = (grant_r[0] if len(grant_r) == 1
                       else np.concatenate(grant_r))
                q_g = (grant_q[0] if len(grant_q) == 1
                       else np.concatenate(grant_q))
                t_g = (grant_t[0] if len(grant_t) == 1
                       else np.concatenate(grant_t))
                g_f = r_g * n + q_g
                mg = measuring[r_g]
                _wadd(wb_count, wb_mean, wb_m2, r_g[mg],
                      (t_g - fire_f[g_f])[mg])
                dur = np.empty(r_g.size, dtype=np.float64)

                isbc = kind_f[g_f] == 1
                rb2 = r_g[isbc]
                if rb2.size:
                    qb2 = q_g[isbc]
                    tb2 = t_g[isbc]
                    durb = np.full(rb2.size, _at(t_bc, rb2))
                    if all_bc_mem:
                        durb += memory_write(rb2, tb2)
                    elif any_bc_mem:
                        wm = bc_mem[rb2]
                        if wm.any():
                            durb[wm] += memory_write(rb2[wm], tb2[wm])
                    if any_multi:
                        shb = f_shared.ravel()[g_f[isbc]]
                        if not all_multi:
                            shb &= multi[rb2]
                        rsn = rb2[shb]
                        if rsn.size:
                            hold = draw_holders(rsn)
                            hold[np.arange(rsn.size), qb2[shb]] = False
                            cu = cache_until[rsn]
                            cache_until[rsn] = np.where(
                                hold,
                                np.maximum(cu, tb2[shb][:, None])
                                + SNOOP_ACTION_CYCLES,
                                cu)
                    dur[isbc] = durb

                isrr = ~isbc
                rr2 = r_g[isrr]
                if rr2.size:
                    q2 = q_g[isrr]
                    t2 = t_g[isrr]
                    rr_f = g_f[isrr]
                    supwb = f_supwb.ravel()[rr_f]
                    reqwb = f_reqwb.ravel()[rr_f]
                    direct = supwb & _at(c2c, rr2)
                    durr = np.where(direct, _at(cache_supply, rr2),
                                    _at(base_read, rr2))
                    nd = ~direct
                    if any_contention:
                        ndc = nd & contention[rr2]
                        if ndc.any():
                            durr[ndc] += memory_write(rr2[ndc], t2[ndc])
                    flush = nd & supwb
                    if flush.any():
                        durr[flush] += _at(t_block, rr2[flush])
                        memory_write(rr2[flush], t2[flush])
                    if reqwb.any():
                        durr[reqwb] += _at(t_block, rr2[reqwb])
                        memory_write(rr2[reqwb], t2[reqwb])
                    if any_multi:
                        sh2 = f_shared.ravel()[rr_f]
                        if not all_multi:
                            sh2 &= multi[rr2]
                        rs2 = rr2[sh2]
                        if rs2.size:
                            qs = q2[sh2]
                            ts = t2[sh2]
                            rows = np.arange(rs2.size)
                            hold = draw_holders(rs2)
                            hold[rows, qs] = False
                            anyh = hold.any(axis=1)
                            firsth = hold.argmax(axis=1)
                            cs = f_csup.ravel()[rr_f[sh2]]
                            react = hold
                            skip = cs & anyh
                            react[rows[skip], firsth[skip]] = False
                            cu = cache_until[rs2]
                            cache_until[rs2] = np.where(
                                react,
                                np.maximum(cu, ts[:, None])
                                + SNOOP_ACTION_CYCLES,
                                cu)
                            # The supplier (first sampled holder, else a
                            # uniformly random other cache) is tied up
                            # for the whole transaction.
                            sup = np.full(rs2.size, -1, dtype=np.int64)
                            sup[skip] = firsth[skip]
                            fb = cs & ~anyh
                            if fb.any():
                                rfb = rs2[fb]
                                pick = (lanes.take(rfb, 1)
                                        * _at(n_less1, rfb)
                                        ).astype(np.int64)
                                sup[fb] = pick + (pick >= qs[fb])
                            have = sup >= 0
                            rsup = rs2[have]
                            if rsup.size:
                                supc = sup[have]
                                cu2 = cache_until[rsup, supc]
                                cache_until[rsup, supc] = (
                                    np.maximum(cu2, ts[have])
                                    + durr[sh2][have])
                    dur[isrr] = durr

                bus_current[r_g] = q_g
                bus_start[r_g] = t_g
                bus_until[r_g] = t_g + dur

            # -- completions: cycle stats, warm-up / stop, next burst --
            if comp_r:
                rc = (comp_r[0] if len(comp_r) == 1
                      else np.concatenate(comp_r))
                fc = (comp_f[0] if len(comp_f) == 1
                      else np.concatenate(comp_f))
                tc = (comp_t[0] if len(comp_t) == 1
                      else np.concatenate(comp_t))
                cyc = tc - cstart_f[fc]
                meas = measuring[rc]
                rm = rc[meas]
                if rm.size:
                    cm = cyc[meas]
                    _wadd(cw_count, cw_mean, cw_m2, rm, cm)
                    if batch_take > 0:
                        idx = measured[rm]
                        inb = idx < batch_take
                        batch_sums[rm[inb], idx[inb] // batch_size] \
                            += cm[inb]
                    fm = fc[meas]
                    resp = np.maximum(
                        tc[meas] - fire_f[fm] - _at(t_supply, rm), 0.0)
                    # One sample per (kind, lane) pair, so a single
                    # flat-indexed Welford step updates all three kinds.
                    rix = kind_f[fm].astype(np.int64) * reps + rm
                    resp_count_f[rix] += 1
                    delta = resp - resp_mean_f[rix]
                    resp_mean_f[rix] += delta / resp_count_f[rix]
                    measured[rm] += 1
                completed[rc] += 1

                stop = np.zeros(rc.size, dtype=bool)
                stop[meas] = measured[rm] >= target
                rstop = rc[stop]
                if rstop.size:
                    done[rstop] = True
                    end_time[rstop] = tc[stop]
                    proc_time[rstop, :] = inf
                    bus_until[rstop] = inf
                    active -= rstop.size

                warm = (~meas) & (completed[rc] >= warmup)
                rw = rc[warm]
                if rw.size:
                    measuring[rw] = True
                    measure_start[rw] = tc[warm]
                    cw_count[rw] = 0
                    cw_mean[rw] = 0.0
                    cw_m2[rw] = 0.0
                    batch_sums[rw] = 0.0
                    wb_count[rw] = 0
                    wb_mean[rw] = 0.0
                    wb_m2[rw] = 0.0
                    sq_count[rw] = 0
                    sq_mean[rw] = 0.0
                    sq_m2[rw] = 0.0
                    if_count[rw] = 0
                    if_mean[rw] = 0.0
                    if_m2[rw] = 0.0
                    resp_count[:, rw] = 0
                    resp_mean[:, rw] = 0.0
                    bus_busy[rw] = 0.0
                    bus_tx[rw] = 0
                    mem_busy[rw] = 0.0
                    busy_cycles[rw] = 0.0
                    measured[rw] = 0

                # Next burst; the scalar engine draws one even for the
                # lane that just stopped (the event never runs but its
                # burst lands in busy_cycles), so the vector engine
                # does too.
                burst = draw_bursts(rc)
                mnow = measuring[rc]
                busy_cycles[rc[mnow]] += burst[mnow]
                go = ~stop
                rgo = rc[go]
                if rgo.size:
                    fgo = fc[go]
                    cstart_f[fgo] = tc[go]
                    state_f[fgo] = _EXEC
                    ptime_f[fgo] = tc[go] + burst[go]

        state = dict(
            measure_start=measure_start, end_time=end_time,
            cw_count=cw_count, cw_mean=cw_mean, batch_sums=batch_sums,
            wb_count=wb_count, wb_mean=wb_mean, wb_m2=wb_m2,
            sq_count=sq_count, sq_mean=sq_mean,
            if_count=if_count, if_mean=if_mean,
            bus_busy=bus_busy, bus_tx=bus_tx,
            bus_current=bus_current, bus_start=bus_start,
            mem_busy=mem_busy, busy_cycles=busy_cycles)
        results = []
        for cell in self.cells:
            # Contiguous copies of the cell's own rows: every estimate
            # below then sees exactly the arrays a one-cell run would.
            rows = {name: array[cell.lo:cell.hi].copy()
                    for name, array in state.items()}
            results.append(self._collect(
                cell, batch_size=batch_size,
                resp_count=resp_count[:, cell.lo:cell.hi].copy(),
                resp_mean=resp_mean[:, cell.lo:cell.hi].copy(), **rows))
        return results

    # -- estimates -----------------------------------------------------

    @staticmethod
    def _collect(cell: PackCell, *, measure_start, end_time, cw_count,
                 cw_mean, batch_sums, batch_size, wb_count, wb_mean,
                 wb_m2, sq_count, sq_mean, if_count, if_mean, resp_count,
                 resp_mean, bus_busy, bus_tx, bus_current, bus_start,
                 mem_busy, busy_cycles) -> VectorSimulationResult:
        cfg = cell.config
        arch = cfg.arch
        n_batches = cfg.n_batches
        elapsed = end_time - measure_start
        safe_elapsed = np.where(elapsed > 0.0, elapsed, np.inf)

        workload = cfg.effective_workload
        ideal = workload.tau + arch.t_supply
        r_mean = np.where(cw_count > 0, cw_mean, np.nan)
        with np.errstate(invalid="ignore", divide="ignore"):
            speedup = np.where(r_mean > 0.0,
                               cfg.n_processors * ideal / r_mean, 0.0)

        if batch_size > 0 and n_batches >= 2:
            bmeans = batch_sums / batch_size
            grand = bmeans.mean(axis=1)
            var = (((bmeans - grand[:, None]) ** 2).sum(axis=1)
                   / (n_batches - 1))
            t_crit = float(_scipy_stats.t.ppf(0.975, df=n_batches - 1))
            half = t_crit * np.sqrt(var / n_batches)
            with np.errstate(invalid="ignore", divide="ignore"):
                speedup_half = np.where(
                    grand > 0.0,
                    cfg.n_processors * ideal * half / (grand ** 2), 0.0)
        else:
            speedup_half = np.zeros(cell.reps, dtype=np.float64)

        # In-service bus time still pending at each replication's end.
        pending = np.where(
            bus_current >= 0,
            np.maximum(end_time - np.maximum(bus_start, measure_start),
                       0.0),
            0.0)
        u_bus = (bus_busy + pending) / safe_elapsed
        u_mem = mem_busy / (arch.memory_modules * safe_elapsed)
        power = busy_cycles / safe_elapsed

        return VectorSimulationResult(
            n_processors=cfg.n_processors,
            protocol_label=cfg.protocol.label,
            sharing_label=f"{cfg.workload.sharing_fraction * 100:g}%",
            seeds=cell.seeds,
            requests_measured=cw_count,
            elapsed_cycles=elapsed,
            mean_cycle_time=r_mean,
            speedup=speedup,
            speedup_ci_halfwidth=speedup_half,
            processing_power=power,
            u_bus=u_bus,
            u_mem=u_mem,
            w_bus=_wmean(wb_count, wb_mean),
            w_bus_stddev=_wstd(wb_count, wb_m2),
            q_bus_seen=_wmean(sq_count, sq_mean),
            mean_interference_wait=_wmean(if_count, if_mean),
            bus_transactions=bus_tx,
            response_means=resp_mean,
            response_counts=resp_count,
        )


def simulate_many(config: SimulationConfig, reps: int,
                  seeds: Sequence[int] | None = None,
                  ) -> VectorSimulationResult:
    """Build, run, and collect one lockstep multi-replication run.

    ``seeds`` defaults to ``config.seed + r`` for replication ``r``;
    pass an explicit sequence (length ``reps``) to control each
    replication's stream.
    """
    return VectorSnoopingBusSimulator(config, reps, seeds=seeds).run()[0]


def simulate_pack(configs: Sequence[SimulationConfig], reps: Sequence[int],
                  seeds: Sequence[Sequence[int] | None] | None = None,
                  ) -> list[VectorSimulationResult]:
    """Run many cells with as few lockstep runs as :func:`pack_key`
    allows; one result per config, in input order.

    Each result is bit-identical to ``simulate_many(configs[i],
    reps[i], seeds[i])``.
    """
    seeds = list(seeds) if seeds is not None else [None] * len(configs)
    groups: dict[tuple[Any, ...], list[int]] = {}
    for index, config in enumerate(configs):
        groups.setdefault(pack_key(config), []).append(index)
    results: list[VectorSimulationResult | None] = [None] * len(configs)
    for indices in groups.values():
        packed = VectorSnoopingBusSimulator.pack(
            [configs[i] for i in indices], [reps[i] for i in indices],
            [seeds[i] for i in indices]).run()
        for index, result in zip(indices, packed):
            results[index] = result
    return results  # type: ignore[return-value]
