"""E15: the sharded sweep queue -- chunked dispatch vs the scalar loop.

The sweep queue (``repro.sweepq``) replaced the per-cell process pool
with chunk leases: one IPC round-trip and one vectorized
:func:`repro.core.batch.solve_batch` call per chunk instead of one
pickled task per cell.  This bench records the wall-clock of the same
MVA stress grid through three paths:

* **serial**   -- :func:`repro.verify.scalar_sweep`, the per-cell
  scalar reference (one ``evaluate_task`` call per cell);
* **chunked**  -- ``SweepQueue().run_tasks(tasks, workers=1)``: the
  queue drained in-process with its default one-worker chunk size
  (4 chunks of 512 cells), i.e. chunk amortization alone;
* **executor** -- ``SweepExecutor(jobs=4)``.  It solves MVA cells as
  one in-process batch whatever ``jobs`` is (only simulation cells
  fan out), so this is the batch engine with no queue at all.

The per-cell process pool is deleted, so it has no leg here; it
measured 0.37-0.58x of serial on this grid (``BENCH_sweepq.json``
schema 2).

Asserted: chunked >= 2x over serial, and rows byte-identical across
all three paths.  The floor times the in-process drain because that is
what it was first recorded on (a one-core host).  Numbers land in
``output/sweepq.txt`` (human-readable) and
``benchmarks/BENCH_sweepq.json`` (committed machine-readable
trajectory; CI regenerates and uploads it as an artifact without
overwriting the committed baseline).

Quick mode (``REPRO_BENCH_QUICK=1``) shrinks the grid and skips the
speedup floor -- tiny grids cannot amortize the batch engine's fixed
costs.
"""

import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from conftest import once  # noqa: E402

from repro.analysis.stress import stress_tasks
from repro.service.executor import SweepExecutor, collect_sweep_result
from repro.sweepq import SweepQueue
from repro.verify import scalar_sweep

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")

#: 16 protocol combinations x 4 parameter corners x these sizes.
STRESS_SIZES = (4, 16, 64) if QUICK else tuple(range(4, 260, 8))

#: Chunked-over-serial floor asserted on the full stress grid.  The
#: chunked leg runs in-process, so the whole gain is chunk amortization
#: (batch solves + one journal round-trip per lease), not parallelism:
#: ~3x on one core and on two, asserted with slack.
SPEEDUP_FLOOR = 2.0

_REPS = 1 if QUICK else 3


def _best(fn, reps=_REPS):
    """Best-of-N wall clock: the standard guard against scheduler
    noise for sub-second measurements."""
    times = []
    result = None
    for _ in range(reps):
        started = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - started)
    return min(times), result


def _chunked_inprocess(tasks):
    """The queue drained in the calling process (no forked workers)."""
    queue = SweepQueue()
    try:
        return queue.run_tasks(tasks, workers=1)
    finally:
        queue.close()


def test_chunked_sweep_vs_serial(benchmark, emit):
    tasks = stress_tasks(sizes=STRESS_SIZES)
    SweepExecutor(jobs=4).run(tasks[:8])  # warm imports

    def run_all():
        serial_s, serial = _best(lambda: scalar_sweep(tasks))
        chunked_s, chunked = _best(lambda: _chunked_inprocess(tasks))
        executor_s, executor = _best(
            lambda: SweepExecutor(jobs=4).run(tasks))
        return serial_s, serial, chunked_s, chunked, executor_s, executor

    (serial_s, serial, chunked_s, chunked, executor_s,
     executor) = once(benchmark, run_all)

    reference = [cell.as_row() for cell in serial.cells]
    chunked_rows = collect_sweep_result(
        tasks, dict(enumerate(chunked.values)), chunked.cached,
        wall_seconds=chunked.wall_seconds, jobs=1, mode=chunked.mode)
    rows_identical = all(
        [c.as_row() for c in result.cells] == reference
        for result in (chunked_rows, executor))
    speedup = serial_s / chunked_s
    cores = os.cpu_count() or 1

    emit("sweepq.txt",
         f"E15 sweep-queue dispatch on the stress grid "
         f"({len(tasks)} MVA cells, {cores} cores):\n"
         f"  serial (per-cell scalar) : {serial_s:7.3f} s\n"
         f"  chunked in-process       : {chunked_s:7.3f} s "
         f"({speedup:.2f}x, {chunked.counters['chunks']} chunks)\n"
         f"  executor (jobs=4)        : {executor_s:7.3f} s "
         f"({serial_s / executor_s:.2f}x, "
         f"mode={executor.summary.mode})\n")

    record = {
        "schema": 3,
        "cells": len(tasks),
        "quick": QUICK,
        "cores": cores,
        "serial_s": serial_s,
        "chunked_s": chunked_s,
        "chunked_speedup": speedup,
        "chunked_mode": chunked.mode,
        "chunked_chunks": chunked.counters["chunks"],
        "executor_s": executor_s,
        "executor_speedup": serial_s / executor_s,
        "executor_mode": executor.summary.mode,
        "rows_identical": rows_identical,
        "speedup_floor": None if QUICK else SPEEDUP_FLOOR,
    }
    out = Path(__file__).resolve().parent / "BENCH_sweepq.json"
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    assert chunked.mode == "chunked-inprocess"
    assert rows_identical, "every dispatch path must match serial rows"
    if not QUICK:
        assert speedup >= SPEEDUP_FLOOR, (
            f"chunked sweep {speedup:.2f}x over serial, "
            f"floor is {SPEEDUP_FLOOR}x")
