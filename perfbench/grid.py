"""``grid-cold-disk``: the 1008-cell ``repro grid --cache`` user path.

The cold pass starts from a fresh cache file, so every cell is solved
and persisted; the warm passes rerun the same command on that file (all
hits); an uncached run gives the reference CSV.  The grid is fixed, so
the seed does not change the inputs.
"""

from __future__ import annotations

import json
import statistics

from checks import check_grid
from common import Context, Outcome, traced_layers
from procs import run_program

SIZES = tuple(range(1, 22))
#: 16 modification combinations x 3 sharing levels x 21 sizes.
CELLS = 16 * 3 * len(SIZES)
GOLDEN_SIZES = (1, 10, 20)
WARM_PASSES = 3


def run(ctx: Context) -> Outcome:
    grid = ["grid", "--all-combinations", "-n", *map(str, SIZES)]
    cached = grid + ["--cache", str(ctx.workdir / "cache.json")]
    cold = run_program(ctx.workdir, "cold", cached, ctx.trace_prefix)
    # The warm pass is short, so it runs several times and reports the
    # median; only the first is traced (the split of one warm pass).
    # Its time is a named metric, not an end-to-end one: a 0.2 s pass on
    # a shared host spreads too widely to hold a regression bound.
    warms = [run_program(ctx.workdir, f"warm{i}", cached,
                         ctx.trace_prefix if i == 0 else None)
             for i in range(WARM_PASSES)]
    uncached = run_program(ctx.workdir, "uncached", grid, ctx.trace_prefix)

    golden = json.loads((ctx.root / "src/repro/verify/golden_corpus.json")
                        .read_text())["cells"]
    runs = [cold, *warms, uncached]
    attempted, failed = check_grid(
        cold.stdout, [p.stdout for p in runs[1:]], CELLS, golden,
        GOLDEN_SIZES)
    failed += CELLS * sum(1 for p in runs if p.returncode != 0)
    warm_s = statistics.median(p.work_s for p in warms)
    traced = [cold, warms[0], uncached]
    outcome = Outcome(
        metrics={
            "setup_s": statistics.median(p.setup_s for p in runs),
            "peak_rss_mb": max(p.peak_rss_bytes for p in runs) / 1e6,
            "work_per_s": CELLS / cold.work_s,
            "latency_ms": 1e3 * cold.work_s,
        },
        named={"cold_cells_per_s": (CELLS / cold.work_s, "cells/s"),
               "warm_cells_per_s": (CELLS / warm_s, "cells/s"),
               "uncached_cells_per_s": (CELLS / uncached.work_s, "cells/s"),
               "wall_s": (sum(p.wall_s for p in traced), "s")},
        attempted=attempted, failed=min(failed, attempted))
    if ctx.trace:
        outcome.layers = traced_layers(
            ctx, sum(p.wall_s for p in traced), {})
    return outcome
