"""Shared fixtures and helpers for the benchmark/reproduction harness.

Every ``bench_*.py`` file regenerates one paper artifact (see DESIGN.md
experiment index E1-E12).  Run with::

    pytest benchmarks/ --benchmark-only -s

``-s`` shows the regenerated tables; each bench also writes its
rendering into ``benchmarks/output/`` so EXPERIMENTS.md can be rebuilt
without scraping terminal output.
"""

from __future__ import annotations

from pathlib import Path

import pytest

OUTPUT_DIR = Path(__file__).resolve().parent / "output"


@pytest.fixture(scope="session")
def output_dir() -> Path:
    OUTPUT_DIR.mkdir(exist_ok=True)
    return OUTPUT_DIR


@pytest.fixture(scope="session")
def emit(output_dir):
    """Print a block and append it to a named artifact file."""

    written: set[str] = set()

    def _emit(artifact: str, text: str) -> None:
        print("\n" + text)
        path = output_dir / artifact
        # The session's first write truncates, so a rerun replaces the
        # artifact instead of appending to it; artifacts of benches
        # that did not run this session are left alone.
        with path.open("a" if artifact in written else "w") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
        written.add(artifact)

    return _emit


def once(benchmark, fn):
    """Run an expensive regeneration exactly once under the benchmark
    timer (simulations and sweeps are too slow for repeated rounds)."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
