"""``scripts/check_docs.py``: the E17 figures in docs/performance.md
must match the committed ``benchmarks/BENCH_sim.json``."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFORMANCE = ROOT / "docs" / "performance.md"
BENCH_SIM = ROOT / "benchmarks" / "BENCH_sim.json"


def _check_docs():
    spec = importlib.util.spec_from_file_location(
        "check_docs", ROOT / "scripts" / "check_docs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_committed_figures_match_the_artifact():
    assert _check_docs().check_figures(PERFORMANCE, BENCH_SIM) == []


def test_a_moved_figure_is_reported(tmp_path):
    bench = json.loads(BENCH_SIM.read_text())
    bench["packed"]["throughput_x"]["median"] += 1.0
    moved = tmp_path / "BENCH_sim.json"
    moved.write_text(json.dumps(bench))
    errors = _check_docs().check_figures(PERFORMANCE, moved)
    assert len(errors) == 1 and "drifted" in errors[0], errors
