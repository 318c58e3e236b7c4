"""The lockstep vector DES engine: edge cases and integration seams.

The statistical-equivalence oracle proper lives in
``repro.verify.differential`` (and runs in ``repro verify --tier
full``); these tests pin the cheap structural promises -- reps=1
parity with the scalar entry point, exact seed-permutation behaviour,
saturated corners, counter dtypes, and the cache-key/CLI seams the
engine plugs into.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro.protocols.modifications import ProtocolSpec
from repro.service import executor as executor_module
from repro.service.executor import (
    CellTask,
    SweepExecutor,
    evaluate_sim_pack,
    evaluate_task,
    evaluate_with_retry,
)
from repro.service.keys import task_key
from repro.sim import vector as vector_module
from repro.sim.config import BusDiscipline, SimulationConfig
from repro.sim.system import SimulationResult, simulate
from repro.sim.vector import (
    VectorSnoopingBusSimulator,
    simulate_many,
    simulate_pack,
)
from repro.verify.invariants import audit_sim_result
from repro.workload.parameters import SharingLevel, appendix_a_workload


def _config(workload, n=4, mods=(), seed=77, warmup=500, measured=2_000,
            **kwargs):
    return SimulationConfig(
        n_processors=n, workload=workload, protocol=ProtocolSpec.of(*mods),
        seed=seed, warmup_requests=warmup, measured_requests=measured,
        **kwargs)


def _result_bytes(result) -> bytes:
    """The full result record, canonically serialized (as in
    ``tests/test_determinism.py``)."""
    return json.dumps(dataclasses.asdict(result), sort_keys=True).encode()


def _rows_bytes(vector) -> list[bytes]:
    """Every replication row plus the aggregate of one cell's result."""
    return ([_result_bytes(vector.replication(r))
             for r in range(vector.n_replications)]
            + [_result_bytes(vector.aggregate())])


def _mixed_pack(warmup=200):
    """Write-Once and WO+1+2+3+4 at N in {2, 4, 16} over two sharing
    levels, with unequal replication counts per cell."""
    cells = []
    for level in (SharingLevel.FIVE_PERCENT, SharingLevel.TWENTY_PERCENT):
        workload = appendix_a_workload(level)
        for mods in ((), (1, 2, 3, 4)):
            for n in (2, 4, 16):
                config = _config(workload, n=n, mods=mods,
                                 seed=1000 + 37 * n + len(mods),
                                 warmup=warmup, measured=800)
                cells.append((config, 1 + (n + len(mods)) % 4))
    return cells


class TestLanePacking:
    """A cell's rows must not depend on what else shares its pack."""

    # With no warm-up the initial bursts stay in the measured busy time.
    @pytest.mark.parametrize("warmup", [200, 0])
    def test_packed_cells_match_running_alone(self, warmup):
        cells = _mixed_pack(warmup)
        packed = VectorSnoopingBusSimulator.pack(
            [config for config, _ in cells],
            [reps for _, reps in cells]).run()
        assert len(packed) == len(cells)
        for (config, reps), result in zip(cells, packed):
            alone = simulate_many(config, reps=reps)
            assert _rows_bytes(result) == _rows_bytes(alone), (
                config.protocol.label, config.n_processors)

    def test_permuting_one_cells_seeds_permutes_only_its_rows(
            self, workload_5pct):
        configs = [_config(workload_5pct, n=2), _config(workload_5pct, n=16),
                   _config(workload_5pct, n=4, mods=(1, 2, 3, 4))]
        seeds = [(11, 12, 13), (21, 22), (31, 32, 33)]
        permuted = [seeds[0], seeds[1], (33, 31, 32)]
        a = simulate_pack(configs, [3, 2, 3], seeds)
        b = simulate_pack(configs, [3, 2, 3], permuted)
        for cell in (0, 1):
            assert _rows_bytes(a[cell]) == _rows_bytes(b[cell])
        order = [seeds[2].index(s) for s in permuted[2]]
        for r, source in enumerate(order):
            assert (_result_bytes(b[2].replication(r))
                    == _result_bytes(a[2].replication(source)))

    def test_pack_reports_lane_count_and_shared_config(self, workload_5pct):
        configs = [_config(workload_5pct, n=2), _config(workload_5pct, n=8)]
        simulator = VectorSnoopingBusSimulator.pack(configs, [3, 5])
        assert simulator.reps == 8
        assert simulator.config is configs[0]
        assert [cell.reps for cell in simulator.cells] == [3, 5]
        assert simulator.seeds == (77, 78, 79, 77, 78, 79, 80, 81)

    def test_pack_rejects_differing_windows(self, workload_5pct):
        configs = [_config(workload_5pct),
                   _config(workload_5pct, measured=1_000)]
        with pytest.raises(ValueError, match="share warm-up"):
            VectorSnoopingBusSimulator.pack(configs, [2, 2])

    def test_simulate_pack_splits_by_pack_key(self, workload_5pct):
        configs = [_config(workload_5pct, n=2, measured=600),
                   _config(workload_5pct, n=4, measured=900),
                   _config(workload_5pct, n=16, measured=600)]
        results = simulate_pack(configs, [2, 3, 2])
        for config, reps, result in zip(configs, [2, 3, 2], results):
            assert (_rows_bytes(result)
                    == _rows_bytes(simulate_many(config, reps=reps)))

    def test_run_reports_its_tick_count(self, workload_5pct):
        """Every request completes in some tick of its lane, so a run
        takes at least warm-up + measured ticks."""
        simulator = VectorSnoopingBusSimulator.pack(
            [_config(workload_5pct, n=2, warmup=100, measured=300),
             _config(workload_5pct, n=8, warmup=100, measured=300)], [2, 3])
        assert simulator.ticks == 0
        simulator.run()
        assert simulator.ticks >= 400

    def test_single_processor_lanes(self, workload_5pct):
        """N=1 (no snooping, no supplier) runs alone and packed."""
        one = _config(workload_5pct, n=1, warmup=100, measured=500)
        alone = simulate_many(one, reps=3)
        assert np.all(alone.speedup > 0.0) and np.all(alone.speedup <= 1.0)
        packed = simulate_pack(
            [one, _config(workload_5pct, n=4, warmup=100, measured=500)],
            [3, 2])
        assert _rows_bytes(packed[0]) == _rows_bytes(alone)


class TestSimPackHelper:
    """``evaluate_sim_pack``: the executor's packed path for vector-DES
    cells, row-for-row the per-cell path."""

    @staticmethod
    def _tasks():
        workload = appendix_a_workload(SharingLevel.FIVE_PERCENT)
        return [CellTask(protocol=ProtocolSpec.of(*mods),
                         sharing_label="5%", workload=workload, n=n,
                         method="sim", sim_requests=400, sim_seed=50 + n,
                         sim_engine="vector", sim_reps=reps)
                for mods, n, reps in (((), 2, 2), ((1, 2, 3, 4), 16, 3),
                                      ((1,), 4, 1))]

    @staticmethod
    def _strip(value):
        return {k: v for k, v in value.items()
                if k not in ("elapsed_s", "sim_pack_cells")}

    def test_matches_per_cell_path(self):
        tasks = self._tasks()
        packed = evaluate_sim_pack(tasks, sim_retries=2)
        for task, value in zip(tasks, packed):
            assert value["sim_pack_cells"] == len(tasks)
            assert value["attempts"] == 1
            assert value["effective_seed"] == task.sim_seed
            assert (self._strip(value)
                    == self._strip(evaluate_with_retry(task, 2)))

    @staticmethod
    def _break_packs(monkeypatch):
        """Make every run of more than one cell raise; the per-cell
        path runs a pack of one through the same class and survives."""
        original = vector_module.VectorSnoopingBusSimulator.run

        def run(self):
            if len(self.cells) > 1:
                raise RuntimeError("pack died")
            return original(self)

        monkeypatch.setattr(vector_module.VectorSnoopingBusSimulator,
                            "run", run)

    def test_packed_run_failure_falls_back_per_cell(self, monkeypatch):
        tasks = self._tasks()
        expected = [self._strip(evaluate_with_retry(task, 2))
                    for task in tasks]
        self._break_packs(monkeypatch)
        values = evaluate_sim_pack(tasks, sim_retries=2)
        assert [self._strip(v) for v in values] == expected
        assert all("sim_pack_cells" not in v for v in values)

    def test_one_failing_cell_becomes_an_error_row(self, monkeypatch):
        tasks = self._tasks()
        bad = tasks[1]
        original = executor_module.evaluate_task

        def flaky(task):
            if task.n == bad.n:
                raise RuntimeError("cell died")
            return original(task)

        monkeypatch.setattr(executor_module, "evaluate_task", flaky)
        self._break_packs(monkeypatch)
        values = evaluate_sim_pack(tasks, sim_retries=1)
        assert values[1]["error"]["type"] == "RuntimeError"
        assert values[1]["attempts"] == 2
        monkeypatch.undo()
        for index in (0, 2):
            assert (self._strip(values[index])
                    == self._strip(evaluate_with_retry(tasks[index], 1)))

    def test_packs_respect_the_lane_cap(self, monkeypatch):
        from repro.sweepq import chunks

        monkeypatch.setattr(chunks, "PACK_LANE_CAP", 4)
        tasks = self._tasks()  # 2, 3 and 1 lanes
        values = evaluate_sim_pack(tasks, sim_retries=2)
        assert [v["sim_pack_cells"] for v in values] == [1, 2, 2]
        assert ([self._strip(v) for v in values]
                == [self._strip(evaluate_with_retry(t, 2)) for t in tasks])

    def test_serial_executor_packs_its_des_cells(self):
        tasks = self._tasks()
        result = SweepExecutor(jobs=1).run(tasks)
        assert [meta["sim_pack_cells"] for meta in result.meta] == [3] * 3
        assert ([cell.as_row() for cell in result.cells]
                == [evaluate_with_retry(task, 2)["cell"] for task in tasks])

    def test_rejects_non_vector_cells(self):
        task = dataclasses.replace(self._tasks()[0], sim_engine="scalar",
                                   sim_reps=1)
        with pytest.raises(ValueError, match="vector-DES"):
            evaluate_sim_pack([task], sim_retries=0)


class TestSingleReplication:
    def test_reps_one_matches_scalar_result_shape(self, workload_5pct):
        result = simulate(_config(workload_5pct), engine="vector", reps=1)
        assert isinstance(result, SimulationResult)
        assert result.requests_measured >= 2_000
        assert 0.0 < result.speedup <= 4.0
        assert 0.0 < result.u_bus <= 1.0
        assert result.mean_cycle_time > 0.0
        assert set(result.response_by_kind) <= {"local", "broadcast",
                                                "remote-read"}

    def test_reps_one_aggregate_is_the_single_row(self, workload_5pct):
        vector = simulate_many(_config(workload_5pct), reps=1)
        agg = vector.aggregate()
        row = vector.replication(0)
        assert agg.speedup == row.speedup
        assert agg.u_bus == row.u_bus
        assert agg.requests_measured == row.requests_measured
        assert vector.speedup_band_halfwidth == 0.0

    def test_deterministic_given_seeds(self, workload_5pct):
        a = simulate_many(_config(workload_5pct), reps=3)
        b = simulate_many(_config(workload_5pct), reps=3)
        assert np.array_equal(a.speedup, b.speedup)
        assert np.array_equal(a.u_bus, b.u_bus)
        assert np.array_equal(a.requests_measured, b.requests_measured)


class TestSeedSemantics:
    def test_permuting_seeds_permutes_rows(self, workload_5pct):
        """Replication r depends on seeds[r] alone: the lockstep layout
        must not leak state across lanes."""
        seeds = (101, 202, 303)
        perm = (303, 101, 202)
        a = simulate_many(_config(workload_5pct), reps=3, seeds=seeds)
        b = simulate_many(_config(workload_5pct), reps=3, seeds=perm)
        order = [seeds.index(s) for s in perm]
        assert np.array_equal(b.speedup, a.speedup[order])
        assert np.array_equal(b.u_bus, a.u_bus[order])
        assert np.array_equal(b.w_bus, a.w_bus[order])
        assert np.array_equal(b.mean_cycle_time, a.mean_cycle_time[order])

    def test_distinct_seeds_give_distinct_rows(self, workload_5pct):
        vector = simulate_many(_config(workload_5pct), reps=4)
        assert len(set(vector.speedup.tolist())) == 4

    def test_seed_count_must_match_reps(self, workload_5pct):
        with pytest.raises(ValueError, match="exactly 3 seeds"):
            simulate_many(_config(workload_5pct), reps=3, seeds=(1, 2))

    def test_reps_must_be_positive(self, workload_5pct):
        with pytest.raises(ValueError, match="reps"):
            simulate_many(_config(workload_5pct), reps=0)

    def test_rejects_non_fcfs_bus(self, workload_5pct):
        config = _config(workload_5pct,
                         bus_discipline=BusDiscipline.RANDOM)
        with pytest.raises(ValueError, match="FCFS"):
            VectorSnoopingBusSimulator(config, reps=2)


class TestSaturatedCorners:
    def test_saturated_bus_n100(self, workload_20pct):
        """Deep saturation (N=100, 20% sharing): the bus is pinned, the
        queue is long, and every sim-stats law still holds per row."""
        config = _config(workload_20pct, n=100, warmup=200, measured=800)
        vector = simulate_many(config, reps=2)
        assert np.all(vector.u_bus > 0.9)
        assert np.all(vector.w_bus > 10.0)
        for rep in range(2):
            audit = audit_sim_result(
                vector.replication(rep), tau=workload_20pct.tau,
                t_supply=config.arch.t_supply, subject=f"rep={rep}")
            assert not audit.violations, audit.violations

    def test_aggregate_preserves_speedup_identity(self, workload_5pct):
        """The folded result must satisfy the same speedup identity the
        per-replication rows do (a mean of speedups would not)."""
        config = _config(workload_5pct, n=8)
        agg = simulate_many(config, reps=5).aggregate()
        audit = audit_sim_result(agg, tau=workload_5pct.tau,
                                 t_supply=config.arch.t_supply,
                                 subject="aggregate")
        assert not audit.violations, audit.violations


class TestLongRunCounters:
    def test_counter_dtypes_are_exact_integers(self, workload_5pct):
        vector = simulate_many(_config(workload_5pct, n=2, warmup=1_000,
                                       measured=20_000), reps=2)
        assert vector.requests_measured.dtype == np.int64
        assert vector.bus_transactions.dtype == np.int64
        # Exact counting: every replication measured at least the
        # target and stopped within one completion batch of it.
        assert np.all(vector.requests_measured >= 20_000)
        assert np.all(vector.requests_measured <= 20_000 + 2)

    def test_statistical_agreement_with_scalar_smoke(self, workload_5pct):
        """A coarse one-cell sanity band (the calibrated oracle runs in
        ``repro verify --tier full``)."""
        config = _config(workload_5pct, warmup=1_000, measured=4_000)
        scalar = simulate(config)
        vector = simulate_many(config, reps=6)
        assert float(vector.speedup.mean()) == pytest.approx(
            scalar.speedup, rel=0.10)
        assert float(vector.u_bus.mean()) == pytest.approx(
            scalar.u_bus, abs=0.08)


class TestIntegrationSeams:
    def _task(self, workload, **kwargs):
        return CellTask(protocol=ProtocolSpec.of(), sharing_label="5%",
                        workload=workload, n=2, method="sim",
                        sim_requests=1_000, sim_seed=9, **kwargs)

    def test_default_engine_cache_key_unchanged(self, workload_5pct):
        """Scalar single-run tasks must keep their historical cache
        keys: a cache populated before the vector engine existed stays
        valid."""
        legacy = self._task(workload_5pct)
        assert legacy.sim_engine == "scalar" and legacy.sim_reps == 1
        key = task_key(legacy)
        assert '"engine"' not in key and '"reps"' not in key

    def test_vector_tasks_get_distinct_keys(self, workload_5pct):
        scalar_key = task_key(self._task(workload_5pct))
        vector_key = task_key(self._task(workload_5pct,
                                         sim_engine="vector", sim_reps=4))
        assert scalar_key != vector_key
        assert task_key(self._task(workload_5pct, sim_engine="vector",
                                   sim_reps=8)) != vector_key

    def test_executor_records_vector_provenance(self, workload_5pct):
        value = evaluate_task(self._task(workload_5pct,
                                         sim_engine="vector", sim_reps=3))
        assert value["sim_engine"] == "vector"
        assert value["sim_reps"] == 3
        assert value["cell"]["method"] == "sim"
        assert value["cell"]["speedup"] > 0.0
        scalar_value = evaluate_task(self._task(workload_5pct))
        assert "sim_engine" not in scalar_value

    def test_vector_reps_require_vector_engine(self, workload_5pct):
        with pytest.raises(ValueError, match="sim_engine='vector'"):
            self._task(workload_5pct, sim_reps=4)

    def test_cli_simulate_vector(self, workload_5pct, capsys):
        from repro.cli import main
        rc = main(["simulate", "--protocol", "write-once", "-n", "2",
                   "--requests", "800", "--engine", "vector",
                   "--reps", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        # Three replications x 800 requests folded into one aggregate.
        assert "speedup=" in out and "[2400 requests]" in out

    def test_cli_simulate_rejects_scalar_reps(self, capsys):
        from repro.cli import main
        rc = main(["simulate", "-n", "2", "--reps", "2"])
        assert rc == 2
        assert "--engine vector" in capsys.readouterr().err


#: Committed per-replication rows and aggregates of two small packs
#: (:func:`_golden_packs`); regenerate with
#: ``PYTHONPATH=src python -m tests.test_sim_vector`` only when a change
#: is *meant* to move DES rows.
GOLDEN_ROWS = Path(__file__).resolve().parent / "data" / "vector_golden_rows.json"


def _golden_packs():
    """A ragged mixed pack (N in {1, 2, 4, 16}; Write-Once, WO+1+2+3+4
    and the cache-to-cache WO+2; one cell with read-memory contention,
    one with a holder-probability override) and a warm-up-0 pack."""
    five = appendix_a_workload(SharingLevel.FIVE_PERCENT)
    twenty = appendix_a_workload(SharingLevel.TWENTY_PERCENT)
    mixed = [
        (_config(five, n=1, seed=11, warmup=150, measured=300), 2),
        (_config(twenty, n=4, seed=12, warmup=150, measured=300,
                 model_read_memory_contention=True), 3),
        (_config(twenty, n=16, mods=(1, 2, 3, 4), seed=13, warmup=150,
                 measured=300), 2),
        (_config(twenty, n=2, mods=(2,), seed=14, warmup=150,
                 measured=300, holder_probability=0.8), 3),
        (_config(five, n=4, mods=(1, 2, 3, 4), seed=15, warmup=150,
                 measured=300), 2),
    ]
    cold = [
        (_config(twenty, n=4, mods=(2,), seed=21, warmup=0,
                 measured=300), 2),
        (_config(five, n=2, seed=22, warmup=0, measured=300), 2),
    ]
    return [mixed, cold]


def _golden_record():
    """Every golden cell's rows and aggregate, as plain JSON data."""
    packs = []
    for cells in _golden_packs():
        results = VectorSnoopingBusSimulator.pack(
            [config for config, _ in cells],
            [reps for _, reps in cells]).run()
        packs.append([
            {"rows": [dataclasses.asdict(result.replication(r))
                      for r in range(result.n_replications)],
             "aggregate": dataclasses.asdict(result.aggregate())}
            for result in results])
    return packs


def _assert_same(actual, expected, where="rows"):
    """Integers, strings and keys exactly; floats at rel_tol=1e-12 (a
    different NumPy build may round a libm call differently)."""
    if isinstance(expected, dict):
        assert isinstance(actual, dict) and actual.keys() == expected.keys(), \
            where
        for key in expected:
            _assert_same(actual[key], expected[key], f"{where}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(actual) == len(expected), \
            where
        for index, (a, e) in enumerate(zip(actual, expected)):
            _assert_same(a, e, f"{where}[{index}]")
    elif isinstance(expected, float):
        assert isinstance(actual, float), where
        assert (math.isnan(actual) and math.isnan(expected)) or \
            math.isclose(actual, expected, rel_tol=1e-12), (
                where, actual, expected)
    else:
        assert type(actual) is type(expected) and actual == expected, (
            where, actual, expected)


class TestGoldenRows:
    """The engine's rows against a committed reference: packed-vs-alone
    invariance cannot see a change that moves every lane alike."""

    def test_rows_match_the_committed_reference(self):
        expected = json.loads(GOLDEN_ROWS.read_text())
        _assert_same(_golden_record(), expected)

    def test_reference_covers_the_promised_corners(self):
        configs = [config for cells in _golden_packs()
                   for config, _ in cells]
        assert {c.n_processors for c in configs} == {1, 2, 4, 16}
        assert {c.protocol.label for c in configs} >= {
            "Write-Once", "WO+1+2+3+4", "WO+2"}
        assert any(c.model_read_memory_contention for c in configs)
        assert any(c.holder_probability is not None for c in configs)
        assert {c.warmup_requests for c in configs} == {150, 0}


if __name__ == "__main__":
    GOLDEN_ROWS.parent.mkdir(exist_ok=True)
    GOLDEN_ROWS.write_text(json.dumps(_golden_record(), indent=1,
                                      sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_ROWS}")
