"""Run the ``repro`` CLI as one program process of the benchmark.

    python perfbench/launch.py --marks FILE [--trace PREFIX]
        [--import-only] -- <repro CLI arguments>

Writes ``FILE`` (JSON, ``perf_counter`` seconds, which share the
system-wide monotonic clock with the parent) with the moment the CLI
module finished importing, so the parent can time set-up from its own
launch time.  With ``--trace`` every layer boundary is wrapped (see
``layers.py``) and this process's spans go to ``PREFIX.<pid>.json``;
forked sweep workers write their own files next to it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="launch.py")
    parser.add_argument("--marks", required=True)
    parser.add_argument("--trace")
    parser.add_argument("--import-only", action="store_true")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] \
        else args.cli_args
    if args.trace:
        import layers
        from spans import Tracer
    # The program imports from its sources, not from this directory.
    sys.path[0] = str(ROOT / "src")

    marks: dict[str, float] = {}
    tracer = None
    if args.trace:
        tracer = Tracer(tag=os.environ.get("PERFBENCH_TAG", ""))
        with tracer.span("cli.import"):
            import repro.cli
        marks["imported"] = time.perf_counter()
        with tracer.span("trace.install"):
            layers.install(tracer, args.trace)
    else:
        import repro.cli
        marks["imported"] = time.perf_counter()
    Path(args.marks).write_text(json.dumps(marks))
    if args.import_only:
        return 0
    try:
        return repro.cli.main(cli_args)
    finally:
        if tracer is not None:
            tracer.dump(f"{args.trace}.{os.getpid()}.json")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
