"""``sweep-des``: a DES-backed ``repro sweep`` over two workers.

Write-Once and its fully modified variant at N = 4 and 16, three
sharing levels: 12 vector-DES cells (16 replications each, the width
``repro verify --tier full`` runs) plus their 12 MVA rows, through an
ephemeral queue and an in-memory cache.  The seed is the sweep's
simulation seed base.
"""

from __future__ import annotations

import statistics

from checks import check_sweep
from common import Context, Outcome, traced_layers
from procs import import_setup_s, run_program

SIZES = (4, 16)
REPS = 16
REQUESTS = 2500
#: Write-Once and WO+1+2+3+4, three sharing levels, two sizes.
DES_CELLS = 2 * 3 * len(SIZES)
ROWS = 2 * DES_CELLS
#: Import-only launches, so set-up is a median of three processes.
SETUP_SAMPLES = 2


def run(ctx: Context) -> Outcome:
    args = ["sweep", "--protocols", "write-once", "1,2,3,4",
            "-n", *map(str, SIZES), "--simulate", "--sim-engine", "vector",
            "--sim-reps", str(REPS), "--requests", str(REQUESTS),
            "--workers", "2", "--seed", str(ctx.seed)]
    setups = [import_setup_s(ctx.workdir, f"setup{i}")
              for i in range(SETUP_SAMPLES)]
    sweep = run_program(ctx.workdir, "sweep", args, ctx.trace_prefix)
    setups.append(sweep.setup_s)
    attempted, failed, gap = check_sweep(sweep.stdout, ROWS)
    if sweep.returncode != 0:
        failed = attempted
    sim_req_per_s = DES_CELLS * REPS * REQUESTS / sweep.work_s
    outcome = Outcome(
        metrics={
            "setup_s": statistics.median(setups),
            "peak_rss_mb": sweep.peak_rss_bytes / 1e6,
            "work_per_s": sim_req_per_s,
            "latency_ms": 1e3 * sweep.work_s,
        },
        named={"sim_req_per_s": (sim_req_per_s, "req/s"),
               "max_speedup_gap": (gap, "share"),
               "wall_s": (sweep.wall_s, "s")},
        attempted=attempted, failed=min(failed, attempted))
    if ctx.trace:
        outcome.layers = traced_layers(ctx, sweep.wall_s,
                                       {"sim.max_speedup_gap": gap})
    return outcome
