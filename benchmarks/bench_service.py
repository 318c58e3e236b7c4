"""E13: the evaluation service -- parallel fan-out and result caching.

The paper's efficiency claim (Section 3.2: "seconds of computing,
independent of N") makes the MVA cheap enough to *serve*; this bench
measures the two service-layer multipliers on top of it:

1. a multi-protocol sweep with simulation cells fans out over the
   sharded sweep queue, cutting wall-clock below the serial run;
2. an MVA stress sweep through the executor at jobs=4 beats the
   per-cell scalar path >= 2x even on one core (its MVA cells are one
   in-process batch solve; the old per-cell process pool recorded
   0.96x here -- pure pickling overhead);
3. a repeated sweep with the content-addressed cache enabled re-solves
   zero cells (100 % hit rate);
4. a cold sweep through a disk-backed cache costs little more than an
   uncached one: the SQLite store writes changed rows per flush, not
   the whole file (ratio floors 1.5x for the per-cell scalar path,
   which commits once per cell, and 3x for a batch sweep).

Numbers land in ``output/service.txt`` (human-readable) and
``benchmarks/BENCH_service.json`` (the committed machine-readable
baseline, ``BENCH_sweepq.json``-style; the CI quick run parks its copy
as an artifact and restores the committed one).
"""

import json
import os
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from conftest import once  # noqa: E402

from repro.analysis.grid import GridSpec
from repro.analysis.stress import stress_tasks
from repro.protocols.modifications import ProtocolSpec
from repro.service import MetricsRegistry, ResultCache, SweepExecutor
from repro.verify import scalar_sweep
from repro.workload.parameters import SharingLevel

#: Quick mode (the CI smoke job) shrinks the simulation cells so the
#: whole file runs in seconds; wall-clock comparisons that need real
#: work to be meaningful are skipped.
QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")


def _write_json(record: dict) -> None:
    """Merge one section into the committed ``BENCH_service.json``."""
    path = Path(__file__).resolve().parent / "BENCH_service.json"
    existing = {}
    if path.exists():
        try:
            existing = json.loads(path.read_text())
        except ValueError:
            existing = {}
    existing.update(record, schema=1, quick=QUICK,
                    cores=os.cpu_count() or 1)
    path.write_text(json.dumps(existing, indent=2, sort_keys=True) + "\n")

#: Simulation cells are what makes parallelism worth having: each cell
#: costs ~a second, so four workers on eight cells should roughly halve
#: the wall-clock even with pool start-up overhead.
_SWEEP = GridSpec(
    protocols=[ProtocolSpec(), ProtocolSpec.of(1), ProtocolSpec.of(1, 4),
               ProtocolSpec.of(1, 2, 3)],
    sizes=[4, 8],
    sharing_levels=[SharingLevel.FIVE_PERCENT],
    include_simulation=True,
    sim_requests=1_000 if QUICK else 8_000,
)


def test_parallel_sweep_beats_serial(benchmark, emit):
    """Wall-clock of the same sim-heavy sweep, serial vs 4 workers."""

    def run_both():
        started = time.perf_counter()
        serial = SweepExecutor(jobs=1).run_spec(_SWEEP)
        serial_s = time.perf_counter() - started
        started = time.perf_counter()
        parallel = SweepExecutor(jobs=4).run_spec(_SWEEP)
        parallel_s = time.perf_counter() - started
        rows_equal = ([c.as_row() for c in serial.cells]
                      == [c.as_row() for c in parallel.cells])
        return serial_s, parallel_s, parallel.summary.mode, rows_equal

    serial_s, parallel_s, mode, rows_equal = once(benchmark, run_both)
    cores = os.cpu_count() or 1
    emit("service.txt",
         f"E13 parallel sweep ({len(_SWEEP.protocols)} protocols x "
         f"{len(_SWEEP.sizes)} sizes, MVA+sim cells, {cores} cores):\n"
         f"  serial   : {serial_s:7.2f} s\n"
         f"  jobs=4   : {parallel_s:7.2f} s ({mode}, "
         f"{serial_s / parallel_s:.2f}x)\n")
    _write_json({"parallel_sweep": {
        "serial_s": serial_s, "parallel_s": parallel_s, "mode": mode,
        "speedup": serial_s / parallel_s, "rows_identical": rows_equal}})
    assert rows_equal, "parallel sweep must be bit-identical to serial"
    # Wall-clock can only drop when the machine has cores to fan out
    # to -- and enough per-cell work to hide start-up overhead, which
    # the shrunken quick-mode cells do not have.
    fanned_out = mode.split("+")[-1] == "chunked"
    if not QUICK and fanned_out and cores > 1:
        assert parallel_s < serial_s, (
            f"4-worker sweep ({parallel_s:.2f}s) not faster than serial "
            f"({serial_s:.2f}s)")


def test_chunked_stress_sweep_beats_serial(benchmark, emit):
    """The executor at jobs=4 >= 2x over the per-cell scalar path on
    the MVA stress grid, replacing the 0.96x the old per-cell process
    pool recorded here.  The executor solves MVA cells as one
    in-process batch whatever ``jobs`` is, so the gain holds on one
    core; see ``bench_sweepq.py`` (E15) for the queue's own chunked
    drain against the same baseline.
    """
    tasks = stress_tasks(sizes=(4, 16, 64) if QUICK
                         else tuple(range(4, 260, 8)))
    SweepExecutor(jobs=4).run(tasks[:8])  # warm imports

    def run_both():
        reps = 1 if QUICK else 3
        serial_s = min(_timed(lambda: scalar_sweep(tasks))
                       for _ in range(reps))
        chunked_best = None
        chunked_s = float("inf")
        for _ in range(reps):
            elapsed, result = _timed_result(
                lambda: SweepExecutor(jobs=4).run(tasks))
            if elapsed < chunked_s:
                chunked_s, chunked_best = elapsed, result
        serial = scalar_sweep(tasks)
        rows_equal = ([c.as_row() for c in serial.cells]
                      == [c.as_row() for c in chunked_best.cells])
        return serial_s, chunked_s, chunked_best.summary.mode, rows_equal

    serial_s, chunked_s, mode, rows_equal = once(benchmark, run_both)
    speedup = serial_s / chunked_s
    emit("service.txt",
         f"E13 chunked stress sweep ({len(tasks)} MVA cells, "
         f"{os.cpu_count() or 1} cores):\n"
         f"  per-cell scalar: {serial_s:7.3f} s\n"
         f"  executor jobs=4: {chunked_s:7.3f} s ({mode}, "
         f"{speedup:.2f}x)\n")
    _write_json({"chunked_stress": {
        "cells": len(tasks), "serial_s": serial_s, "chunked_s": chunked_s,
        "mode": mode, "speedup": speedup, "rows_identical": rows_equal,
        "speedup_floor": None if QUICK else 2.0}})
    assert rows_equal, "chunked sweep must be bit-identical to serial"
    if not QUICK:
        assert speedup >= 2.0, (
            f"chunked sweep only {speedup:.2f}x over serial "
            f"(floor 2.0x)")


def _timed(fn):
    started = time.perf_counter()
    fn()
    return time.perf_counter() - started


def _timed_result(fn):
    started = time.perf_counter()
    result = fn()
    return time.perf_counter() - started, result


def test_cached_rerun_solves_nothing(benchmark, emit):
    """A repeated sweep through the cache is a 100 % hit rate."""
    registry = MetricsRegistry()
    executor = SweepExecutor(jobs=4, cache=ResultCache(), metrics=registry)

    def run_twice():
        executor.run_spec(_SWEEP)
        started = time.perf_counter()
        rerun = executor.run_spec(_SWEEP)
        return rerun, time.perf_counter() - started

    rerun, rerun_s = once(benchmark, run_twice)
    snapshot = registry.snapshot()
    emit("service.txt",
         f"E13 cached rerun of the same sweep:\n"
         f"  cells re-solved : {rerun.summary.solved}\n"
         f"  cache hit rate  : {rerun.summary.cache_hit_rate:.0%}\n"
         f"  rerun wall      : {rerun_s * 1e3:.1f} ms\n"
         f"  metrics         : hits={snapshot['repro_cache_hits_total']:g} "
         f"misses={snapshot['repro_cache_misses_total']:g}\n")
    _write_json({"cached_rerun": {
        "cells": rerun.summary.total, "resolved": rerun.summary.solved,
        "hit_rate": rerun.summary.cache_hit_rate, "rerun_s": rerun_s}})
    assert rerun.summary.solved == 0
    assert rerun.summary.cache_hit_rate == 1.0
    assert snapshot["repro_cache_hits_total"] == rerun.summary.total


def test_mva_grid_latency_through_service(benchmark, emit):
    """Interactive-exploration latency: a 48-cell MVA-only grid, cold
    vs cached, through the service executor."""
    spec = GridSpec(
        protocols=[ProtocolSpec(), ProtocolSpec.of(1), ProtocolSpec.of(1, 4),
                   ProtocolSpec.of(1, 2, 3)],
        sizes=[1, 2, 4, 8, 16, 32, 64, 128],
        sharing_levels=[SharingLevel.FIVE_PERCENT,
                        SharingLevel.TWENTY_PERCENT])
    executor = SweepExecutor(cache=ResultCache())

    def cold_then_warm():
        started = time.perf_counter()
        cold = executor.run_spec(spec)
        cold_s = time.perf_counter() - started
        started = time.perf_counter()
        warm = executor.run_spec(spec)
        warm_s = time.perf_counter() - started
        return cold, cold_s, warm, warm_s

    cold, cold_s, warm, warm_s = once(benchmark, cold_then_warm)
    emit("service.txt",
         f"E13 MVA-only design-space grid ({cold.summary.total} cells):\n"
         f"  cold solve : {cold_s * 1e3:7.1f} ms\n"
         f"  cached     : {warm_s * 1e3:7.1f} ms "
         f"({cold_s / warm_s:.0f}x faster)\n")
    _write_json({"grid_latency": {
        "cells": cold.summary.total, "cold_s": cold_s, "warm_s": warm_s,
        "speedup": cold_s / warm_s}})
    assert warm.summary.cache_hit_rate == 1.0
    assert warm_s < cold_s


#: Disk-cache leg: (engine, stress sizes, ratio floor).  The scalar
#: path (one single-cell sweep per cell) commits once per cell, a batch
#: sweep once per sweep.
_DISK_LEGS = (
    ("scalar", tuple(range(4, 260, 8)), 1.5),   # 2048 cells
    ("batch", tuple(range(4, 260, 16)), 3.0),   # 1024 cells
)


def _sweep(engine, tasks, cache=None):
    """Run ``tasks`` on one engine; returns the cells in task order.

    ``batch`` is one executor sweep (two or more MVA cells: one batch
    solve).  ``scalar`` is one single-cell sweep per cell -- the
    executor's scalar path, a per-cell solve and, with a cache, a
    per-cell commit."""
    executor = SweepExecutor(cache=cache)
    if engine == "batch":
        return executor.run(tasks).cells
    return [executor.run([task]).cells[0] for task in tasks]


def test_disk_cache_overhead(benchmark, emit, tmp_path):
    """Cold sweep through a disk-backed cache vs the same sweep with no
    cache: the median cached/uncached wall ratio over interleaved pairs
    stays under the floor.  The whole-file JSON store this replaced
    measured 195x (scalar) and 527x (batch) on one pair on a 2-vCPU
    host; quick mode checks correctness only."""
    pairs = 1 if QUICK else 7

    def run_legs():
        legs = {}
        for engine, sizes, floor in _DISK_LEGS:
            tasks = stress_tasks(sizes=sizes[:3] if QUICK else sizes)
            _sweep(engine, tasks[:8])  # warm-up
            ratios, plain_s, disk_s = [], [], []
            for rep in range(pairs):
                elapsed, plain = _timed_result(
                    lambda: _sweep(engine, tasks))
                plain_s.append(elapsed)
                path = tmp_path / f"{engine}-{rep}.db"
                elapsed, disk = _timed_result(
                    lambda: _sweep(engine, tasks,
                                   ResultCache(path=path)))
                disk_s.append(elapsed)
                ratios.append(disk_s[-1] / plain_s[-1])
            warm = SweepExecutor(cache=ResultCache(path=path)).run(tasks)
            rows = [c.as_row() for c in plain]
            legs[engine] = {
                "cells": len(tasks), "pairs": pairs,
                "uncached_s_median": statistics.median(plain_s),
                "disk_cached_s_median": statistics.median(disk_s),
                "ratio_median": statistics.median(ratios),
                "ratio_min": min(ratios), "ratio_max": max(ratios),
                "ratio_floor": None if QUICK else floor,
                "rows_identical": (rows == [c.as_row() for c in disk]
                                   == [c.as_row() for c in warm.cells]),
                "warm_resolved": warm.summary.solved,
            }
        return legs

    legs = once(benchmark, run_legs)
    lines = [f"E13 disk-cached vs uncached cold sweep (median of "
             f"{pairs} interleaved pairs, {os.cpu_count() or 1} cores):"]
    for engine, leg in legs.items():
        lines.append(
            f"  {engine:6s} {leg['cells']:5d} cells: "
            f"{leg['uncached_s_median']:7.3f} s -> "
            f"{leg['disk_cached_s_median']:7.3f} s "
            f"({leg['ratio_median']:.2f}x, range "
            f"{leg['ratio_min']:.2f}-{leg['ratio_max']:.2f}x)")
    emit("service.txt", "\n".join(lines) + "\n")
    _write_json({"disk_cache": legs})
    for engine, leg in legs.items():
        assert leg["rows_identical"], f"{engine}: cached rows differ"
        assert leg["warm_resolved"] == 0, f"{engine}: reload re-solved"
        if not QUICK:
            assert leg["ratio_median"] <= leg["ratio_floor"], (
                f"{engine}: disk cache {leg['ratio_median']:.2f}x of "
                f"uncached (floor {leg['ratio_floor']}x)")
