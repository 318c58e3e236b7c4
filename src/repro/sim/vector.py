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
NumPy operations whose cost grows slowly with the lane count (E17's
``BENCH_sim.json``: 314 us per tick at 32 lanes, 552 us at 512), which
is where the >=10x throughput over running
:class:`~repro.sim.system.SnoopingBusSimulator` once per seed comes
from, and why packing many cells into one run pays (see
``benchmarks/bench_sim.py``).  The tick count is fixed by the model,
so the loop is written to issue as few NumPy calls per tick as it
can.

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

from repro.protocols.modifications import Modification
from repro.sim.config import SimulationConfig
from repro.sim.stats import t_quantile
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
        stride = int(chunks.max()) + int(widths.max())
        n = len(self._gens)
        self._buf = np.zeros((n, stride), dtype=np.float64)
        for lane, gen in enumerate(self._gens):
            self._buf[lane, :chunks[lane]] = gen.random(chunks[lane])
        self._flat = self._buf.ravel()
        #: Each lane's next read as a flat buffer index; a draw that
        #: would run past ``_end`` refills the lane first.
        self._base = np.arange(n, dtype=np.int64) * stride
        self._cur = self._base.copy()
        self._end = self._base + chunks
        self._aranges: dict[int, np.ndarray] = {}

    def _advance(self, rows: np.ndarray, width: Any) -> np.ndarray:
        """Refill any lane whose buffer cannot serve ``width`` more
        uniforms; returns the rows' flat read positions."""
        cur = self._cur[rows]
        nxt = cur + width
        over = nxt > self._end[rows]
        if np.count_nonzero(over):
            for lane in rows[over].tolist():
                chunk = self._chunks[lane]
                self._buf[lane, :chunk] = self._gens[lane].random(chunk)
            cur = np.where(over, self._base[rows], cur)
            nxt = cur + width
        self._cur[rows] = nxt
        return cur

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
        cur = self._advance(rows, width)
        if width == 1:
            return self._flat[cur]
        return self._flat[cur[:, None] + self._offsets(width)]

    def take_ragged(self, rows: np.ndarray, widths: np.ndarray,
                    width: int) -> np.ndarray:
        """Draw ``widths[i]`` uniforms from lane ``rows[i]``.

        Returns shape ``(len(rows), width)``; a row's columns past its
        own width are not its draws (the caller masks them) and consume
        nothing from the lane's stream.
        """
        cur = self._advance(rows, widths)
        return self._flat[cur[:, None] + self._offsets(width)]


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


def _mean_add(count: np.ndarray, mean: np.ndarray, rows: np.ndarray,
              values: Any) -> np.ndarray:
    """Vectorized Welford mean update, one sample per row; returns the
    step ``values - old mean`` for :func:`_wadd`'s second moment."""
    c = count[rows] + 1
    count[rows] = c
    old = mean[rows]
    delta = values - old
    mean[rows] = old + delta / c
    return delta


def _wadd(count: np.ndarray, mean: np.ndarray, m2: np.ndarray,
          rows: np.ndarray, values: Any) -> None:
    """:func:`_mean_add` plus the second-moment accumulator."""
    delta = _mean_add(count, mean, rows, values)
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
        t_crit = t_quantile(0.975, reps - 1)
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
        #: Lockstep ticks of the last :meth:`run` (0 before one).
        self.ticks = 0

    # -- per-lane constants --------------------------------------------

    def _constants(self) -> dict[str, np.ndarray]:
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
        return {name: np.repeat(np.asarray(values), counts)
                for name, values in rows.items()}

    # -- the lockstep event loop ---------------------------------------

    def run(self) -> list[VectorSimulationResult]:
        """Run warm-up plus measurement in every lane; one result per
        cell, in pack order.  Leaves the lockstep tick count in
        :attr:`ticks`."""
        cfg = self.config
        reps = self.reps
        k = self._constants()
        lane_n, lane_tau = k["n"], k["tau"]
        n = int(lane_n.max())
        # Cells of different N: N-sized draws take ragged widths.
        ragged = bool((lane_n != n).any())
        valid = np.arange(n) < lane_n[:, None]
        # Flags as lane masks, with pack-wide any/all shortcuts.
        bc_mem, contention, c2c = k["bc_mem"], k["contention"], k["c2c"]
        any_bc_mem, any_contention = bool(bc_mem.any()), bool(contention.any())
        any_c2c = bool(c2c.any())
        multi = lane_n > 1
        any_multi, all_multi = bool(multi.any()), bool(multi.all())
        tau_pos = lane_tau > 0.0
        all_tau_pos = bool(tau_pos.all())
        # Per-lane constants stacked per branch: one gather serves each.
        fire_k = np.array([k["p_local"], k["p_loc_bc"]])
        comp_k = np.array([k["t_supply"], lane_tau])
        grant_k = np.array([k[name] for name in (
            "p_loc_bc", "bc_shared_frac", "sr_frac", "srsw_frac",
            "csupply_sro", "csupply_sw", "wb_csupply", "p_reqwb_rr",
            "t_bc", "cache_supply", "base_read", "t_block", "hp")])
        n_less1 = k["n_less1"]

        n_modules, mem_latency = cfg.arch.memory_modules, cfg.arch.memory_latency
        warmup, target = cfg.warmup_requests, cfg.measured_requests
        n_batches = cfg.n_batches
        batch_size = target // n_batches
        batch_take = batch_size * n_batches

        lanes = _UniformLanes(self.seeds, np.maximum(5, lane_n))
        rbase = np.arange(reps) * n
        inf = np.inf
        fmax = np.finfo(np.float64).max
        rows_of = np.arange(max(reps, 1))

        # Per-(lane, proc) state, padded to the pack's largest N; the
        # ``*_f`` names are flat views, so one fancy index on
        # ``lane * n + proc`` reaches a (lane, proc) pair.
        proc_time = np.where(valid, 0.0, inf)
        ptime_f = proc_time.ravel()
        polling_f = np.zeros(reps * n, dtype=bool)
        cstart_f = np.zeros(reps * n, dtype=np.float64)
        fire_f = np.zeros(reps * n, dtype=np.float64)
        # The request's response-statistic slot, ``kind * reps + lane``.
        slot_f = np.zeros(reps * n, dtype=np.int64)
        # The five uniforms its fire drew: the kind and sharing outcome
        # are resolved from them at grant time.
        draws_f = np.zeros((5, reps * n), dtype=np.float64)
        cache_until = np.zeros((reps, n), dtype=np.float64)
        cache_f = cache_until.ravel()

        # Per-lane bus: one in-service slot plus an FCFS ring of size n
        # (at least the lane's own N, so FIFO order is the same).
        bus_current = np.full(reps, -1, dtype=np.int64)
        bus_until = np.full(reps, inf, dtype=np.float64)
        bus_start = np.zeros(reps, dtype=np.float64)
        queue_f = np.zeros(reps * n, dtype=np.int64)
        q_head = np.zeros(reps, dtype=np.int64)
        q_len = np.zeros(reps, dtype=np.int64)

        mem_until = np.zeros((reps, n_modules), dtype=np.float64)

        # Per-lane measurement machinery.  A lane gathers no statistic
        # before its warm-up ends, so they all start (and stay) at zero
        # until then; ``measured`` doubles as the cycle-time count.
        measuring = np.full(reps, warmup == 0, dtype=bool)
        n_meas = reps if warmup == 0 else 0
        measure_start = np.zeros(reps, dtype=np.float64)
        completed = np.zeros(reps, dtype=np.int64)
        measured = np.zeros(reps, dtype=np.int64)
        end_time = np.zeros(reps, dtype=np.float64)

        cw_mean = np.zeros(reps, dtype=np.float64)
        batch_sums = np.zeros((reps, n_batches), dtype=np.float64)
        bsum_f = batch_sums.ravel()
        wb_count = np.zeros(reps, dtype=np.int64)
        wb_mean = np.zeros(reps, dtype=np.float64)
        wb_m2 = np.zeros(reps, dtype=np.float64)
        sq_count = np.zeros(reps, dtype=np.int64)
        sq_mean = np.zeros(reps, dtype=np.float64)
        if_count = np.zeros(reps, dtype=np.int64)
        if_mean = np.zeros(reps, dtype=np.float64)
        resp_count = np.zeros((3, reps), dtype=np.int64)
        resp_mean = np.zeros((3, reps), dtype=np.float64)
        bus_busy = np.zeros(reps, dtype=np.float64)
        bus_tx = np.zeros(reps, dtype=np.int64)
        mem_busy = np.zeros(reps, dtype=np.float64)
        busy_cycles = np.zeros(reps, dtype=np.float64)

        resp_count_f = resp_count.ravel()
        resp_mean_f = resp_mean.ravel()
        whole = slice(None)

        def gathering(rows: np.ndarray) -> Any:
            """Which of ``rows`` gather statistics: all (a full slice),
            none (None) or a mask."""
            if n_meas == reps:
                return whole
            return measuring[rows] if n_meas else None

        def memory_write(rows: np.ndarray, at: np.ndarray) -> np.ndarray:
            """Occupy one random module per row; returns the bus wait."""
            mods_pick = (lanes.take(rows, 1) * n_modules).astype(np.int64)
            start = np.maximum(at, mem_until[rows, mods_pick])
            mem_until[rows, mods_pick] = start + mem_latency
            sel = gathering(rows)
            if sel is not None:
                mem_busy[rows[sel]] += mem_latency
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

            # Each live lane's next event: its bus completion if that is
            # finite and no later than its earliest processor timer
            # (the bus wins ties), else that processor's event.
            fi = rbase + proc_time.argmin(axis=1)
            pt = ptime_f[fi]
            rb = (bus_until <= np.minimum(pt, fmax)).nonzero()[0]
            rp = (bus_until > pt).nonzero()[0]
            if not (rb.size or rp.size):
                raise RuntimeError(
                    "vector DES deadlock: live replications but no "
                    "finite pending event")

            # Bus grants and completions found this tick, as (lane,
            # processor, time) and (lane, flat lane*n+proc index, time
            # the cache starts its supply cycle) parts.  Local parts
            # come first, so the completion phase sets their caches'
            # busy horizon (through the supply) from one prefix slice.
            grants: list[tuple[np.ndarray, ...]] = []
            comps: list[tuple[np.ndarray, ...]] = []

            # -- bus completions (priority over processor events) ------
            if rb.size:
                tb = bus_until[rb]
                sel = gathering(rb)
                if sel is not None:
                    rbm = rb[sel]
                    bus_busy[rbm] += (tb[sel]
                                      - np.maximum(bus_start[rbm],
                                                   measure_start[rbm]))
                    bus_tx[rbm] += 1
                # The cache answers the processor one supply cycle
                # later; that completion has no further interactions,
                # so it is folded into this tick's completion batch.
                bus_done = (rb, rb * n + bus_current[rb], tb)
                bus_current[rb] = -1
                bus_until[rb] = inf
                ql = q_len[rb]
                ih = ql.nonzero()[0]
                if ih.size:
                    rn = rb[ih]
                    head = q_head[rn]
                    grants.append((rn, queue_f[rn * n + head], tb[ih]))
                    q_head[rn] = (head + 1) % n
                    q_len[rn] = ql[ih] - 1

            # -- processor events --------------------------------------
            if rp.size:
                fp = fi[rp]
                tp = pt[rp]
                # A polling processor retries its local request; every
                # other one fires a new request.
                attempt = polling_f[fp]
                n_poll = np.count_nonzero(attempt)
                if n_poll:
                    ix = (~attempt).nonzero()[0]
                    rf, ff, tf = rp[ix], fp[ix], tp[ix]
                else:
                    rf, ff, tf = rp, fp, tp

                # fire: draw the outcome and route the request
                if rf.size:
                    u = lanes.take(rf, 5)
                    p_local, p_loc_bc = fire_k.take(rf, axis=1)
                    u0 = u[:, 0]
                    tobus = u0 >= p_local
                    slot_f[ff] = (np.add(tobus, u0 >= p_loc_bc,
                                         dtype=np.int64) * reps + rf)
                    draws_f[:, ff] = u.T
                    fire_f[ff] = tf

                    iq = tobus.nonzero()[0]
                    if iq.size:
                        rq, fq, tq = rf[iq], ff[iq], tf[iq]
                        ptime_f[fq] = inf
                        ql = q_len[rq]
                        busy = bus_current[rq] >= 0
                        sel = gathering(rq)
                        if sel is not None:
                            _mean_add(sq_count, sq_mean, rq[sel],
                                      (ql + busy)[sel])
                        jq = fq - rq * n
                        n_busy = np.count_nonzero(busy)
                        if n_busy < busy.size:
                            ig = (~busy).nonzero()[0]
                            grants.append((rq[ig], jq[ig], tq[ig]))
                        if n_busy:
                            ib = busy.nonzero()[0]
                            rpush, qlb = rq[ib], ql[ib]
                            queue_f[rpush * n + (q_head[rpush] + qlb) % n] \
                                = jq[ib]
                            q_len[rpush] = qlb + 1
                    if n_poll:
                        attempt[ix] = ~tobus
                    else:
                        attempt = ~tobus

                # Local requests (new ones and retries) against the
                # cache's snoop horizon: served now, or polled again
                # when the horizon passes.
                il = attempt.nonzero()[0]
                if il.size:
                    rl, fl, tl = rp[il], fp[il], tp[il]
                    cu = cache_f[fl]
                    free = tl + _EPS >= cu
                    if np.count_nonzero(free) < free.size:
                        iw = (~free).nonzero()[0]
                        fw = fl[iw]
                        polling_f[fw] = True
                        ptime_f[fw] = cu[iw]
                        iv = free.nonzero()[0]
                        rl, fl, tl, cu = rl[iv], fl[iv], tl[iv], cu[iv]
                    if rl.size:
                        if n_poll:
                            polling_f[fl] = False
                        sel = gathering(rl)
                        if sel is not None:
                            _mean_add(if_count, if_mean, rl[sel],
                                      (tl - fire_f[fl])[sel])
                        comps.append((rl, fl, np.maximum(tl, cu)))

            # -- bus grants: compute service, occupy memory, snoop -----
            # Grants run before the completion batch, mirroring the
            # scalar bus (Bus.complete starts the next transaction
            # before the finished request's callback runs); a lane
            # stopped by a completion below then freezes over any bus
            # service granted this tick.  A lane has at most one grant
            # per tick, so broadcasts and remote reads share one pass.
            if grants:
                if len(grants) == 1:
                    r_g, q_g, t_g = grants[0]
                else:
                    r_g, q_g, t_g = (np.concatenate(part)
                                     for part in zip(*grants))
                g_f = r_g * n + q_g
                sel = gathering(r_g)
                if sel is not None:
                    _wadd(wb_count, wb_mean, wb_m2, r_g[sel],
                          (t_g - fire_f[g_f])[sel])
                u0, u1, u2, u3, u4 = draws_f.take(g_f, axis=1)
                (p_loc_bc, bc_shared_frac, sr_frac, srsw_frac, csupply_sro,
                 csupply_sw, wb_csupply, p_reqwb_rr, t_bc, cache_supply,
                 base_read, t_block, hp) = grant_k.take(r_g, axis=1)
                isbc = u0 < p_loc_bc
                isrr = ~isbc
                # Sharing: a broadcast's shared line, else a remote
                # read's shared-read or shared-write miss (whose cache
                # supply probability depends on which).
                shared = u1 < np.where(isbc, bc_shared_frac, srsw_frac)
                csup = shared & isrr & (
                    u2 < np.where(u1 < sr_frac, csupply_sro, csupply_sw))
                supwb = csup & (u3 < wb_csupply)
                reqwb = isrr & (u4 < p_reqwb_rr)
                direct = supwb & c2c[r_g] if any_c2c else None
                dur = np.where(isbc, t_bc,
                               base_read if direct is None
                               else np.where(direct, cache_supply, base_read))
                flush = supwb if direct is None else supwb & ~direct
                # Memory writes in rounds, each lane's k-th write in round
                # k so a lane keeps its own order: the broadcast or
                # contended read (whose wait stalls the bus), then the
                # supplier's flush, then the requester's write-back.
                writes = np.add(flush, reqwb, dtype=np.int64)
                stall = None
                if any_bc_mem:
                    stall = isbc & bc_mem[r_g]
                if any_contention:
                    ndc = isrr & contention[r_g]
                    if direct is not None:
                        ndc &= ~direct
                    stall = ndc if stall is None else stall | ndc
                if stall is not None:
                    writes += stall
                rnd = 1
                while True:
                    w = writes >= rnd
                    if not np.count_nonzero(w):
                        break
                    wait = memory_write(r_g[w], t_g[w])
                    if rnd == 1 and stall is not None \
                            and np.count_nonzero(stall):
                        dur[stall] += wait[stall[w]]
                    rnd += 1
                if np.count_nonzero(flush):
                    dur += flush * t_block
                dur += reqwb * t_block

                if any_multi:
                    ish = (shared if all_multi
                           else shared & multi[r_g]).nonzero()[0]
                    k2 = ish.size
                    if k2:
                        rs2, qs, ts2 = r_g[ish], q_g[ish], t_g[ish]
                        hp2 = hp[ish][:, None]
                        if ragged:
                            hold = lanes.take_ragged(rs2, lane_n[rs2], n) < hp2
                            hold &= valid[rs2]
                        else:
                            hold = lanes.take(rs2, n) < hp2
                        rows = rows_of[:k2]
                        hold[rows, qs] = False
                        first = hold.argmax(axis=1)
                        anyh = hold[rows, first]
                        cs = csup[ish]
                        # A cache-supplied read ties up its supplier (the
                        # first sampled holder, else a uniformly random
                        # other cache) for the whole transaction instead
                        # of a snoop action.
                        hold[rows, first] = anyh > cs
                        cu = cache_until[rs2]
                        cache_until[rs2] = np.where(
                            hold,
                            np.maximum(cu, ts2[:, None]) + SNOOP_ACTION_CYCLES,
                            cu)
                        ics = cs.nonzero()[0]
                        if ics.size:
                            rsup, sup = rs2[ics], first[ics]
                            fb = ~anyh[ics]
                            if np.count_nonzero(fb):
                                rfb = rsup[fb]
                                pick = (lanes.take(rfb, 1)
                                        * n_less1[rfb]).astype(np.int64)
                                sup[fb] = pick + (pick >= qs[ics][fb])
                            sf = rsup * n + sup
                            cache_f[sf] = (np.maximum(cache_f[sf], ts2[ics])
                                           + dur[ish[ics]])

                bus_current[r_g] = q_g
                bus_start[r_g] = t_g
                bus_until[r_g] = t_g + dur

            # -- completions: cycle stats, warm-up / stop, next burst --
            if rb.size:
                comps.append(bus_done)
            if comps:
                if len(comps) == 1:
                    rc, fc, xc = comps[0]
                else:
                    rc, fc, xc = (np.concatenate(part)
                                  for part in zip(*comps))
                t_supply, tau = comp_k.take(rc, axis=1)
                tc = xc + t_supply
                n_local = rc.size - rb.size
                if n_local:
                    cache_f[fc[:n_local]] = tc[:n_local]
                sel = gathering(rc)
                stop = None
                if sel is not None:
                    rm, fm, tm = rc[sel], fc[sel], tc[sel]
                    cyc = tm - cstart_f[fm]
                    idx = measured[rm]
                    count = idx + 1
                    measured[rm] = count
                    mean = cw_mean[rm]
                    cw_mean[rm] = mean + (cyc - mean) / count
                    if batch_take:
                        bix = rm * n_batches + idx // batch_size
                        if batch_take < target:
                            inb = idx < batch_take
                            bix, cyc = bix[inb], cyc[inb]
                        bsum_f[bix] += cyc
                    # One sample per (kind, lane) slot, so a single
                    # flat-indexed step updates all three kinds.
                    _mean_add(resp_count_f, resp_mean_f, slot_f[fm],
                              np.maximum(tm - fire_f[fm] - t_supply[sel],
                                         0.0))
                    hit = count >= target
                    n_stop = np.count_nonzero(hit)
                    if n_stop:
                        rstop = rm[hit]
                        end_time[rstop] = tm[hit]
                        proc_time[rstop] = inf
                        bus_until[rstop] = inf
                        active -= n_stop
                        if sel is whole:
                            stop = hit
                        else:
                            stop = np.zeros(rc.size, dtype=bool)
                            stop[sel] = hit

                if n_meas < reps:
                    done_c = completed[rc] + 1
                    completed[rc] = done_c
                    warm = done_c >= warmup
                    if sel is not None:
                        warm &= ~sel
                    n_warm = np.count_nonzero(warm)
                    if n_warm:
                        rw = rc[warm]
                        measuring[rw] = True
                        measure_start[rw] = tc[warm]
                        n_meas += n_warm

                # Next burst; the scalar engine draws one even for the
                # lane that just stopped (the event never runs but its
                # burst lands in busy_cycles), so the vector engine
                # does too.  A lane with tau <= 0 draws nothing.
                if all_tau_pos:
                    burst = -tau * np.log1p(-lanes.take(rc, 1))
                else:
                    burst = np.zeros(rc.size, dtype=np.float64)
                    pos = tau > 0.0
                    if pos.any():
                        burst[pos] = -tau[pos] * np.log1p(
                            -lanes.take(rc[pos], 1))
                sel = gathering(rc)
                if sel is not None:
                    busy_cycles[rc[sel]] += burst[sel]
                if stop is not None:
                    go = ~stop
                    fc, tc, burst = fc[go], tc[go], burst[go]
                cstart_f[fc] = tc
                ptime_f[fc] = tc + burst

        self.ticks = tick
        state = dict(
            measure_start=measure_start, end_time=end_time,
            cw_count=measured, cw_mean=cw_mean, batch_sums=batch_sums,
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
            t_crit = t_quantile(0.975, n_batches - 1)
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
