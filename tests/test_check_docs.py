"""``scripts/check_docs.py``: the E17 figures in docs/performance.md,
and the tick costs quoted in docs/sweeps.md, ``repro.sweepq.chunks``
and ``repro.sim.vector``, must match the committed
``benchmarks/BENCH_sim.json``; the E16 ratio quoted in README.md and
docs/service.md must match ``benchmarks/BENCH_load.json``."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFORMANCE = ROOT / "docs" / "performance.md"
BENCH_SIM = ROOT / "benchmarks" / "BENCH_sim.json"
BENCH_LOAD = ROOT / "benchmarks" / "BENCH_load.json"


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


def test_committed_tick_costs_match_the_artifact():
    assert _check_docs().check_tick_quotes(BENCH_SIM) == []


def test_a_moved_tick_cost_is_reported_in_every_quote(tmp_path):
    bench = json.loads(BENCH_SIM.read_text())
    bench["scaling"]["widths"]["32"]["us_per_tick"] += 10.0
    moved = tmp_path / "BENCH_sim.json"
    moved.write_text(json.dumps(bench))
    errors = _check_docs().check_tick_quotes(moved)
    assert all("drifted" in error for error in errors), errors
    assert sorted(error.split(":")[0] for error in errors) == [
        "docs/sweeps.md", "src/repro/sim/vector.py",
        "src/repro/sweepq/chunks.py"]


def test_committed_load_ratio_matches_the_artifact():
    assert _check_docs().check_load_quotes(BENCH_LOAD) == []


def test_a_moved_load_ratio_is_reported_in_every_quote(tmp_path):
    bench = json.loads(BENCH_LOAD.read_text())
    bench["speedup_async_coalesced_vs_threaded"] += 0.5
    moved = tmp_path / "BENCH_load.json"
    moved.write_text(json.dumps(bench))
    errors = _check_docs().check_load_quotes(moved)
    assert all("E16 figure drifted" in error for error in errors), errors
    assert sorted(error.split(":")[0] for error in errors) == [
        "README.md", "docs/service.md"]
