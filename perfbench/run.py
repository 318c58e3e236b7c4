"""The repository benchmark: three user paths, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads (see ``README.md`` here):
``grid-cold-disk`` (``repro grid --cache``), ``sweep-des``
(``repro sweep`` with vector-DES rows) and ``solve-open-loop``
(``POST /v1/solve`` against ``repro serve --async``).  Each run checks
the program's outputs and prints, as its last stdout line, one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` -- the
end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, its
per-layer metrics with ``--trace 1`` (layer boundaries wrapped in every
program process).  The workload's own named metrics go to stderr.

``--seconds`` is part of the command's interface; each workload's unit
of work is fixed (five grid passes, one sweep, the interleaved rate
blocks) and sized so a run measures about ``run_seconds`` or more.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _workloads() -> dict:
    import grid
    import openloop
    import sweep
    return {"grid-cold-disk": grid.run, "sweep-des": sweep.run,
            "solve-open-loop": openloop.run}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}; run from a "
              "full checkout", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(ROOT / "src"))
    workloads = _workloads()
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r} "
                     f"(choose from {', '.join(workloads)})")

    from common import Context
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                    dir=_work_root()))
    try:
        ctx = Context(root=ROOT, workdir=workdir, seed=args.seed,
                      trace=bool(args.trace))
        outcome = workloads[args.workload](ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, (value, unit) in outcome.named.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}", file=sys.stderr)
    attempted = max(outcome.attempted, 1)
    values = dict(outcome.metrics)
    values["ok_share"] = (attempted - outcome.failed) / attempted
    if args.trace:
        values = outcome.layers
    declared = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise RuntimeError(f"workload did not measure {missing}")
    metrics = {m["name"]: {"value": float(values[m["name"]]),
                           "unit": m["unit"]} for m in declared}
    for name, entry in metrics.items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}",
              file=sys.stderr)
    print(json.dumps({"correct": outcome.failed == 0,
                      "attempted": attempted, "failed": outcome.failed,
                      "metrics": metrics}))
    return 0


def _work_root() -> Path:
    root = ROOT / ".perfbench_work"
    root.mkdir(exist_ok=True)
    return root


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
