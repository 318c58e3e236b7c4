"""E14: the batched vectorized MVA engine vs the scalar loop.

The paper's efficiency pitch (Section 3.2: solutions "in under one
second of cpu time, independent of the size of the system analyzed")
is per *cell*; design-space sweeps multiply it by hundreds of cells.
``repro.core.batch`` stacks every cell's iterated quantities into
``(cells,)`` NumPy arrays and runs one vectorized sweep per iteration
for the whole grid, so the sweep cost amortizes across cells.

Two claims are checked here:

1. **Parity** -- ``run_grid`` (one batch solve: the executor picks the
   batch engine for any multi-cell sweep) reproduces the per-cell
   scalar Table 4.1 grid cell-for-cell (``GridCell.as_row()``
   equality, which is stricter than the solver tolerance: the batch
   engine is written to be bit-identical).
2. **Speedup** -- on the 16-combination stress grid the batched engine
   is >= 5x faster than the scalar per-cell loop at the engine tier
   (derive inputs -> solve -> assemble rows: what the service does for
   every cell).  The solver-only and end-to-end executor tiers are
   reported alongside.

Quick mode (``REPRO_BENCH_QUICK=1``, used by the CI smoke job) shrinks
the stress grid and relaxes the speedup floor -- tiny grids cannot
amortize the batch engine's fixed costs, and CI runners are noisy.

Numbers land in ``output/batch.txt`` (human-readable),
``output/batch.json`` (machine-readable, uploaded as a CI artifact)
and ``benchmarks/BENCH_batch.json`` (the committed machine-readable
baseline, ``BENCH_sweepq.json``-style; the CI quick run parks its copy
as an artifact and restores the committed one).
"""

import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from conftest import once  # noqa: E402

from repro.analysis.experiments import TABLE_41_PROTOCOLS
from repro.analysis.grid import GridSpec, run_grid
from repro.analysis.stress import stress_tasks
from repro.core.batch import solve_batch
from repro.core.model import TABLE_41_SIZES, CacheMVAModel
from repro.service.executor import (SweepExecutor, evaluate_mva_batch,
                                    evaluate_task, tasks_for_spec)
from repro.verify import scalar_sweep

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")

#: Stress-grid size axis: 16 protocol combinations x 4 parameter
#: corners x these sizes.  The full axis gives the batch engine enough
#: width to amortize its per-sweep dispatch cost.
STRESS_SIZES = (4, 16, 64) if QUICK else tuple(range(4, 260, 8))

#: Engine-tier speedup floor asserted on the stress grid.
SPEEDUP_FLOOR = 1.2 if QUICK else 5.0

_REPS = 2 if QUICK else 5


def _best(fn, reps=_REPS):
    """Best-of-N wall clock: the standard guard against scheduler
    noise for sub-second measurements."""
    times = []
    for _ in range(reps):
        started = time.perf_counter()
        fn()
        times.append(time.perf_counter() - started)
    return min(times)


def _merge_json(path: Path, record: dict) -> None:
    existing = {}
    if path.exists():
        try:
            existing = json.loads(path.read_text())
        except ValueError:
            existing = {}
    existing.update(record)
    path.write_text(json.dumps(existing, indent=2, sort_keys=True) + "\n")


def _write_json(output_dir: Path, record: dict) -> None:
    _merge_json(output_dir / "batch.json", record)
    _merge_json(Path(__file__).resolve().parent / "BENCH_batch.json",
                dict(record, schema=1, quick=QUICK,
                     cores=os.cpu_count() or 1))


def test_table41_grid_parity_and_speedup(benchmark, emit, output_dir):
    """The batch engine reproduces the scalar Table 4.1 grid row-for-row."""
    spec = GridSpec(protocols=[TABLE_41_PROTOCOLS[part]
                               for part in ("a", "b", "c")],
                    sizes=list(TABLE_41_SIZES))
    tasks = tasks_for_spec(spec)

    def run_both():
        scalar_s = _best(lambda: scalar_sweep(tasks))
        batch_s = _best(lambda: run_grid(spec))
        scalar_rows = [c.as_row() for c in scalar_sweep(tasks).cells]
        batch_rows = [c.as_row() for c in run_grid(spec)]
        return scalar_s, batch_s, scalar_rows, batch_rows

    scalar_s, batch_s, scalar_rows, batch_rows = once(benchmark, run_both)
    cells = len(scalar_rows)
    emit("batch.txt",
         f"E14 Table 4.1 grid ({cells} cells), scalar vs batch engine:\n"
         f"  scalar : {scalar_s * 1e3:7.1f} ms\n"
         f"  batch  : {batch_s * 1e3:7.1f} ms "
         f"({scalar_s / batch_s:.2f}x)\n"
         f"  rows   : {'identical' if scalar_rows == batch_rows else 'DIFFER'}\n")
    _write_json(output_dir, {"table41": {
        "cells": cells, "scalar_s": scalar_s, "batch_s": batch_s,
        "speedup": scalar_s / batch_s,
        "rows_identical": scalar_rows == batch_rows, "quick": QUICK}})
    assert scalar_rows == batch_rows, (
        "batch engine rows differ from scalar on the Table 4.1 grid")


def test_stress_grid_speedup(benchmark, emit, output_dir):
    """>= 5x over the scalar loop on the 16-combination stress grid.

    Three tiers, same cells:

    * ``solve``    -- the fixed-point iteration alone, prebuilt
      ``EquationSystem`` objects on both sides;
    * ``evaluate`` -- the engine tier (derive inputs, solve, assemble
      row dicts), the per-cell work a sweep actually performs and the
      tier the >= 5x acceptance floor applies to;
    * ``executor`` -- end-to-end: the per-cell scalar reference
      (:func:`repro.verify.scalar_sweep`) against ``SweepExecutor.run``,
      both including the engine-independent bookkeeping (GridCell
      materialization; cache probes and metrics on the executor side)
      that dilutes the ratio.
    """
    tasks = stress_tasks(sizes=STRESS_SIZES)
    systems = [CacheMVAModel(t.workload, t.protocol, arch=t.arch).system(t.n)
               for t in tasks]
    solver = tasks[0].solver

    def scalar_solve():
        for task, system in zip(tasks, systems):
            try:
                task.solver.solve_with_recovery(system)
            except Exception:  # noqa: BLE001 - stress corners may diverge
                pass

    def scalar_evaluate():
        for task in tasks:
            evaluate_task(task)

    def run_tiers():
        tiers = {}
        tiers["solve"] = (_best(scalar_solve),
                          _best(lambda: solve_batch(systems, solver=solver,
                                                    traces=False)))
        tiers["evaluate"] = (_best(scalar_evaluate),
                             _best(lambda: evaluate_mva_batch(tasks)))
        tiers["executor"] = (_best(lambda: scalar_sweep(tasks)),
                             _best(lambda: SweepExecutor().run(tasks)))
        return tiers

    tiers = once(benchmark, run_tiers)
    lines = [f"E14 stress grid (16 combinations x 4 corners x "
             f"{len(STRESS_SIZES)} sizes = {len(tasks)} cells"
             f"{', quick mode' if QUICK else ''}):"]
    record = {"cells": len(tasks), "quick": QUICK,
              "speedup_floor": SPEEDUP_FLOOR, "tiers": {}}
    for name, (scalar_s, batch_s) in tiers.items():
        ratio = scalar_s / batch_s
        lines.append(f"  {name:9s}: scalar {scalar_s * 1e3:7.1f} ms   "
                     f"batch {batch_s * 1e3:7.1f} ms   {ratio:5.2f}x")
        record["tiers"][name] = {"scalar_s": scalar_s, "batch_s": batch_s,
                                 "speedup": ratio}
    emit("batch.txt", "\n".join(lines) + "\n")
    _write_json(output_dir, {"stress": record})
    engine_ratio = record["tiers"]["evaluate"]["speedup"]
    assert engine_ratio >= SPEEDUP_FLOOR, (
        f"batch engine {engine_ratio:.2f}x over scalar on the stress grid, "
        f"below the {SPEEDUP_FLOOR}x floor")
