"""Tests for the parallel sweep executor."""

import pytest

import repro.service.executor as executor_module
from repro.analysis.grid import GridSpec, run_grid
from repro.core.solver import FixedPointSolver
from repro.protocols.modifications import ProtocolSpec, all_combinations
from repro.service.cache import ResultCache
from repro.service.coalesce import SolveCoalescer
from repro.service.executor import (
    CellTask,
    SweepExecutor,
    evaluate_task,
    evaluate_with_retry,
    tasks_for_spec,
)
from repro.service.metrics import MetricsRegistry
from repro.sweepq import SweepQueue
from repro.sweepq.journal import SweepJournal
from repro.verify import scalar_sweep
from repro.workload.parameters import SharingLevel, appendix_a_workload


@pytest.fixture()
def spec():
    return GridSpec(
        protocols=[ProtocolSpec(), ProtocolSpec.of(1)],
        sizes=[2, 8],
        sharing_levels=[SharingLevel.FIVE_PERCENT],
    )


@pytest.fixture()
def sim_spec():
    """MVA cells plus their (short) scalar-DES cells: the cells a
    jobs>1 sweep still fans out."""
    return GridSpec(
        protocols=[ProtocolSpec(), ProtocolSpec.of(1)],
        sizes=[2, 8],
        sharing_levels=[SharingLevel.FIVE_PERCENT],
        include_simulation=True, sim_requests=300,
    )


def _scalar_rows(tasks):
    return [cell.as_row() for cell in scalar_sweep(tasks).cells]


class TestTaskExpansion:
    def test_canonical_order(self, spec):
        tasks = tasks_for_spec(spec)
        assert [(t.protocol.label, t.n) for t in tasks] == [
            ("Write-Once", 2), ("Write-Once", 8), ("WO+1", 2), ("WO+1", 8)]
        assert all(t.method == "mva" for t in tasks)

    def test_sim_tasks_follow_their_mva_cell(self):
        spec = GridSpec(protocols=[ProtocolSpec()], sizes=[2, 4],
                        sharing_levels=[SharingLevel.FIVE_PERCENT],
                        include_simulation=True, sim_seed=50)
        tasks = tasks_for_spec(spec)
        assert [(t.method, t.n) for t in tasks] == [
            ("mva", 2), ("sim", 2), ("mva", 4), ("sim", 4)]
        # the seed's per-cell seeding (sim_seed + n) is preserved
        assert [t.sim_seed for t in tasks if t.method == "sim"] == [52, 54]

    def test_task_validation(self):
        workload = appendix_a_workload(SharingLevel.FIVE_PERCENT)
        with pytest.raises(ValueError):
            CellTask(protocol=ProtocolSpec(), sharing_label="5%",
                     workload=workload, n=0)
        with pytest.raises(ValueError):
            CellTask(protocol=ProtocolSpec(), sharing_label="5%",
                     workload=workload, n=2, method="petri")


class TestDeterminism:
    def test_serial_matches_run_grid(self, spec):
        rows = [c.as_row() for c in run_grid(spec)]
        result = SweepExecutor(jobs=1).run_spec(spec)
        assert [c.as_row() for c in result.cells] == rows
        assert rows == _scalar_rows(tasks_for_spec(spec))
        assert result.summary.mode == "batch"

    def test_parallel_matches_serial(self, sim_spec):
        rows = [c.as_row() for c in run_grid(sim_spec)]
        result = SweepExecutor(jobs=2).run_spec(sim_spec)
        assert [c.as_row() for c in result.cells] == rows
        assert result.summary.mode in ("batch+chunked",
                                       "batch+chunked-inprocess")

    def test_run_grid_accepts_an_executor(self, spec):
        cache = ResultCache()
        cells = run_grid(spec, executor=SweepExecutor(cache=cache))
        assert [c.as_row() for c in run_grid(spec)] == \
            [c.as_row() for c in cells]
        assert len(cache) == 4


class TestCaching:
    def test_second_sweep_is_all_hits(self, spec):
        executor = SweepExecutor(cache=ResultCache())
        first = executor.run_spec(spec)
        second = executor.run_spec(spec)
        assert first.summary.solved == 4
        assert second.summary.solved == 0
        assert second.summary.cache_hits == 4
        assert second.summary.cache_hit_rate == 1.0
        assert all(second.cached)
        assert [c.as_row() for c in first.cells] == \
            [c.as_row() for c in second.cells]

    def test_cache_survives_process_boundaries(self, spec, tmp_path):
        """A parallel sweep fills a disk cache a later serial run reads."""
        path = tmp_path / "cells.json"
        SweepExecutor(jobs=2, cache=ResultCache(path=path)).run_spec(spec)
        rerun = SweepExecutor(cache=ResultCache(path=path)).run_spec(spec)
        assert rerun.summary.solved == 0
        assert rerun.summary.cache_hit_rate == 1.0

    def test_metrics_fed(self, spec):
        registry = MetricsRegistry()
        executor = SweepExecutor(cache=ResultCache(), metrics=registry)
        executor.run_spec(spec)
        executor.run_spec(spec)
        snapshot = registry.snapshot()
        assert snapshot["repro_cache_misses_total"] == 4
        assert snapshot["repro_cache_hits_total"] == 4
        assert snapshot["repro_cells_solved_total"] == 4
        assert snapshot["repro_solve_latency_seconds_count"] == 4
        # every MVA cell feeds the iterations histogram
        assert snapshot["repro_solver_iterations_count"] == 4


class TestRetry:
    def _flaky_simulate(self, failures):
        calls = {"n": 0}
        real_simulate = executor_module.simulate

        def fake(config):
            calls["n"] += 1
            if calls["n"] <= failures:
                raise RuntimeError(f"transient failure {calls['n']}")
            return real_simulate(config)
        return fake, calls

    def _sim_task(self):
        return CellTask(
            protocol=ProtocolSpec(), sharing_label="5%",
            workload=appendix_a_workload(SharingLevel.FIVE_PERCENT),
            n=2, method="sim", sim_requests=2_000, sim_seed=7)

    def test_sim_cell_retries_then_succeeds(self, monkeypatch):
        fake, calls = self._flaky_simulate(failures=2)
        monkeypatch.setattr(executor_module, "simulate", fake)
        value = evaluate_with_retry(self._sim_task(), retries=2)
        assert calls["n"] == 3
        assert value["attempts"] == 3
        assert "transient failure" in value["retried_after"]

    def test_sim_cell_exhausts_retries_into_error_payload(self, monkeypatch):
        fake, _ = self._flaky_simulate(failures=10)
        monkeypatch.setattr(executor_module, "simulate", fake)
        value = evaluate_with_retry(self._sim_task(), retries=2)
        assert value["error"]["type"] == "RuntimeError"
        assert "transient failure 3" in value["error"]["message"]
        assert value["attempts"] == 3

    def test_mva_cells_never_retry(self, monkeypatch):
        def boom(task):
            raise RuntimeError("modelling error")
        monkeypatch.setattr(executor_module, "evaluate_task", boom)
        task = CellTask(protocol=ProtocolSpec(), sharing_label="5%",
                        workload=appendix_a_workload(
                            SharingLevel.FIVE_PERCENT), n=2)
        value = evaluate_with_retry(task, retries=5)
        assert value["attempts"] == 1  # the seed bump is sim-only
        assert "modelling error" in value["error"]["message"]

    def test_retried_cell_records_effective_seed(self, monkeypatch):
        """A retried simulation cell is traceable to the seed that
        actually produced it, not the originally requested one."""
        fake, _ = self._flaky_simulate(failures=1)
        monkeypatch.setattr(executor_module, "simulate", fake)
        task = self._sim_task()
        value = evaluate_with_retry(task, retries=2)
        stride = executor_module._RETRY_SEED_STRIDE
        assert value["effective_seed"] == task.sim_seed + stride
        assert value["attempts"] == 2
        # a clean cell reports the seed it was asked for
        clean = evaluate_with_retry(task, retries=0)
        assert clean["effective_seed"] == task.sim_seed

    def test_effective_seed_reaches_cache_and_meta(self, monkeypatch):
        fake, _ = self._flaky_simulate(failures=1)
        monkeypatch.setattr(executor_module, "simulate", fake)
        cache = ResultCache()
        task = self._sim_task()
        result = SweepExecutor(jobs=1, cache=cache).run([task])
        stride = executor_module._RETRY_SEED_STRIDE
        expected = task.sim_seed + stride
        assert result.meta[0]["effective_seed"] == expected
        assert cache.get(task.key)["effective_seed"] == expected

    def test_executor_counts_retries(self, monkeypatch):
        fake, _ = self._flaky_simulate(failures=1)
        monkeypatch.setattr(executor_module, "simulate", fake)
        result = SweepExecutor(jobs=1).run([self._sim_task()])
        assert result.summary.retries == 1


def _mva_task(n, solver=None):
    return CellTask(
        protocol=ProtocolSpec(), sharing_label="5%",
        workload=appendix_a_workload(SharingLevel.FIVE_PERCENT), n=n,
        **({"solver": solver} if solver is not None else {}))


def _cell_task(n, **fields):
    return CellTask(
        protocol=ProtocolSpec(), sharing_label="5%",
        workload=appendix_a_workload(SharingLevel.FIVE_PERCENT), n=n,
        **fields)


#: A solver no damping rung can save: the tolerance is unreachable.
_POISONED = FixedPointSolver(tolerance=1e-30, max_iterations=3)

#: A solver that fails plain substitution (cap too low for ~15 sweeps
#: to 1e-3) but converges on the warm-started 0.5 rung of the ladder.
_RECOVERABLE = FixedPointSolver(tolerance=1e-3, max_iterations=10)


class TestFailureIsolation:
    """One dead cell must not take down (or perturb) the sweep."""

    def _tasks_with_one_poisoned(self):
        tasks = [_mva_task(n) for n in (2, 4, 8)]
        tasks.insert(2, _mva_task(6, solver=_POISONED))
        return tasks

    def test_sweep_completes_with_one_error_row(self):
        tasks = self._tasks_with_one_poisoned()
        result = SweepExecutor(jobs=1).run(tasks)
        assert result.summary.failed == 1
        assert len(result.failures) == 1
        failure = result.failures[0]
        assert failure.index == 2
        assert failure.error_type == "SolverError"
        assert failure.ladder == (1.0, 0.5, 0.25, 0.1)
        error_cell = result.cells[2]
        assert error_cell.error is not None
        assert error_cell.speedup is None
        assert error_cell.n_processors == 6

    def test_surviving_cells_match_a_clean_run(self):
        clean = SweepExecutor(jobs=1).run([_mva_task(n) for n in (2, 4, 8)])
        mixed = SweepExecutor(jobs=1).run(self._tasks_with_one_poisoned())
        survivors = [c for c in mixed.cells if c.error is None]
        assert [c.as_row() for c in survivors] == \
            [c.as_row() for c in clean.cells]

    def test_completed_cells_are_cached_but_failures_are_not(self):
        cache = ResultCache()
        tasks = self._tasks_with_one_poisoned()
        SweepExecutor(jobs=1, cache=cache).run(tasks)
        assert len(cache) == 3
        assert cache.get(tasks[2].key) is None
        # a rerun re-attempts only the failed cell
        rerun = SweepExecutor(jobs=1, cache=cache).run(tasks)
        assert rerun.summary.cache_hits == 3
        assert rerun.summary.solved == 1
        assert rerun.summary.failed == 1

    def test_cache_is_flushed_incrementally(self, tmp_path, monkeypatch):
        """An interrupted sweep keeps every cell completed before the
        interruption in the on-disk store (here on the per-cell path a
        dead batch engine falls back to)."""
        path = tmp_path / "cells.json"
        cache = ResultCache(path=path)
        tasks = [_mva_task(n) for n in (2, 4, 8)]
        calls = {"n": 0}
        real = executor_module.evaluate_task

        def dies_on_third(task):
            calls["n"] += 1
            if calls["n"] == 3:
                raise KeyboardInterrupt
            return real(task)

        def batch_dies(tasks):
            raise RuntimeError("batch engine down")
        monkeypatch.setattr(executor_module, "evaluate_mva_batch", batch_dies)
        monkeypatch.setattr(executor_module, "evaluate_task", dies_on_third)
        with pytest.raises(KeyboardInterrupt):
            SweepExecutor(jobs=1, cache=cache).run(tasks)
        reloaded = ResultCache(path=path)
        assert len(reloaded) == 2  # the two cells solved before the cut

    def test_interrupted_mixed_sweep_keeps_the_batch_and_the_pack(
            self, tmp_path, monkeypatch):
        """Each engine call is persisted before the next starts: a cut
        in the first scalar-DES cell leaves the MVA batch and the
        vector-DES pack on disk, even when that cell comes first in
        task order."""
        path = tmp_path / "cells.db"
        des = {"method": "sim", "sim_requests": 300}
        tasks = [
            _cell_task(2, **des), _mva_task(2),
            _cell_task(2, sim_engine="vector", sim_reps=2, **des),
            _mva_task(4), _cell_task(4, **des),
            _cell_task(4, sim_engine="vector", sim_reps=2, **des),
            _mva_task(8)]
        real = executor_module.evaluate_task

        def cut_at_scalar_des(task):
            if task.method == "sim" and task.sim_engine == "scalar":
                raise KeyboardInterrupt
            return real(task)
        monkeypatch.setattr(executor_module, "evaluate_task",
                            cut_at_scalar_des)
        with pytest.raises(KeyboardInterrupt):
            SweepExecutor(jobs=1, cache=ResultCache(path=path)).run(tasks)
        reloaded = ResultCache(path=path)
        kept = [task for task in tasks if task.method == "mva"
                or task.sim_engine == "vector"]
        assert len(reloaded) == len(kept) == 5
        assert all(reloaded.get(task.key) is not None for task in kept)

    def test_parallel_sweep_isolates_failures_too(self):
        tasks = self._tasks_with_one_poisoned()
        serial = SweepExecutor(jobs=1).run(tasks)
        parallel = SweepExecutor(jobs=2).run(tasks)
        assert parallel.summary.failed == 1
        assert [c.as_row() for c in parallel.cells] == \
            [c.as_row() for c in serial.cells]

    def test_failure_metrics(self):
        registry = MetricsRegistry()
        SweepExecutor(jobs=1, metrics=registry).run(
            self._tasks_with_one_poisoned())
        snapshot = registry.snapshot()
        assert snapshot["repro_cells_failed_total"] == 1
        assert snapshot["repro_cells_solved_total"] == 3

    def test_strict_mode_raises_on_first_failure(self):
        from repro.service.executor import CellFailedError
        with pytest.raises(CellFailedError, match="SolverError"):
            SweepExecutor(jobs=1, strict=True).run(
                self._tasks_with_one_poisoned())

    def test_summary_line_mentions_failures(self):
        result = SweepExecutor(jobs=1).run(self._tasks_with_one_poisoned())
        assert "1 failed" in result.summary.line()


class TestDampingRecovery:
    """A cell that diverges at damping 1.0 is rescued by the ladder."""

    def test_recoverable_cell_converges_via_ladder(self):
        result = SweepExecutor(jobs=1).run(
            [_mva_task(10, solver=_RECOVERABLE)])
        assert result.summary.failed == 0
        assert result.summary.recovered == 1
        meta = result.meta[0]
        assert meta["recovered"] is True
        assert meta["damping"] < 1.0
        assert any(w["code"] == "damping-recovery"
                   for w in meta["warnings"])
        # the rescued value agrees with an unconstrained solve
        reference = SweepExecutor(jobs=1).run([_mva_task(10)])
        assert result.cells[0].speedup == pytest.approx(
            reference.cells[0].speedup, rel=1e-2)

    def test_recovery_metrics(self):
        registry = MetricsRegistry()
        SweepExecutor(jobs=1, metrics=registry).run(
            [_mva_task(10, solver=_RECOVERABLE)])
        assert registry.snapshot()["repro_cells_recovered_total"] == 1

    def test_summary_counts_recoveries(self):
        result = SweepExecutor(jobs=1).run(
            [_mva_task(10, solver=_RECOVERABLE), _mva_task(4)])
        assert result.summary.recovered == 1
        assert "1 recovered" in result.summary.line()


class TestSerialFallback:
    def test_broken_queue_degrades_to_in_process(self, sim_spec,
                                                 monkeypatch):
        """The chunked path must never take the executor down with it:
        a queue that blows up falls back to the in-process path."""
        import repro.sweepq as sweepq_module

        def broken_queue(*args, **kwargs):
            raise RuntimeError("journal on fire")
        monkeypatch.setattr(sweepq_module, "SweepQueue", broken_queue)
        rows = [c.as_row() for c in run_grid(sim_spec)]
        result = SweepExecutor(jobs=2).run_spec(sim_spec)
        assert result.summary.mode == "batch+serial"
        assert [c.as_row() for c in result.cells] == rows

    def test_jobs_validation(self):
        with pytest.raises(ValueError):
            SweepExecutor(jobs=0)
        with pytest.raises(ValueError):
            SweepExecutor(sim_retries=-1)


def _solve_through_executor(task):
    return SweepExecutor().run([task]).cells[0].as_row()


def _solve_through_queue(task):
    queue = SweepQueue()
    try:
        outcome = queue.run_tasks([task], workers=1)
    finally:
        queue.close()
    return outcome.values[0]["cell"]


def _solve_through_coalescer(task):
    coalescer = SolveCoalescer()
    try:
        future, _ = coalescer.submit(task)
        return coalescer.result(future)["cell"]
    finally:
        coalescer.close()


class TestEnginePick:
    """Every in-process caller picks engines by one rule: batch for two
    or more MVA cells, the scalar path for one; rows identical either
    way."""

    def test_default_grid_is_one_batch_matching_per_cell_rows(self):
        spec = GridSpec(protocols=all_combinations(), sizes=range(1, 22))
        result = SweepExecutor().run_spec(spec)
        assert result.summary.total == 1008
        assert result.summary.mode == "batch"
        rows = [c.as_row() for c in run_grid(spec)]
        assert [c.as_row() for c in result.cells] == rows
        assert rows == [evaluate_task(task)["cell"]
                        for task in tasks_for_spec(spec)]

    @pytest.mark.parametrize("solve", [
        _solve_through_executor, _solve_through_queue,
        _solve_through_coalescer], ids=["executor", "queue", "coalescer"])
    def test_single_cell_takes_the_scalar_path(self, solve, monkeypatch):
        task = _mva_task(8)
        expected = evaluate_task(task)["cell"]
        calls = {"batch": 0, "scalar": 0}
        real_task = executor_module.evaluate_task

        def no_batch(tasks):
            calls["batch"] += 1
            raise AssertionError("a single cell must not batch")

        def scalar(task):
            calls["scalar"] += 1
            return real_task(task)
        monkeypatch.setattr(executor_module, "evaluate_mva_batch", no_batch)
        monkeypatch.setattr(executor_module, "evaluate_task", scalar)
        assert solve(task) == expected
        assert calls == {"batch": 0, "scalar": 1}

    def test_lone_cell_sweep_reports_serial(self):
        assert SweepExecutor().run([_mva_task(8)]).summary.mode == "serial"

    def test_wholesale_batch_failure_falls_back_to_scalar(self, spec,
                                                          monkeypatch):
        rows = [c.as_row() for c in run_grid(spec)]

        def batch_dies(tasks):
            raise RuntimeError("batch engine down")
        monkeypatch.setattr(executor_module, "evaluate_mva_batch", batch_dies)
        cache = ResultCache()
        result = SweepExecutor(cache=cache).run_spec(spec)
        assert result.summary.mode == "serial"
        assert result.summary.failed == 0
        assert [c.as_row() for c in result.cells] == rows
        assert len(cache) == len(rows)

    def test_jobs_2_batches_mva_in_process_and_chunks_des(
            self, sim_spec, tmp_path, monkeypatch):
        monkeypatch.setattr(executor_module.os, "cpu_count", lambda: 2)
        tasks = tasks_for_spec(sim_spec)
        batches = []
        real = executor_module.evaluate_mva_batch

        def counting(batch):
            batches.append(len(batch))
            return real(batch)
        monkeypatch.setattr(executor_module, "evaluate_mva_batch", counting)
        result = SweepExecutor(jobs=2, state_dir=str(tmp_path)).run(tasks)
        mva_cells = sum(1 for task in tasks if task.method == "mva")
        assert batches == [mva_cells]
        assert result.summary.mode in ("batch+chunked",
                                       "batch+chunked-inprocess")
        journal = SweepJournal(tmp_path / "journal.db")
        try:
            (job,) = journal.list_jobs()
            assert job.total_cells == len(tasks) - mva_cells
        finally:
            journal.close()
        assert [c.as_row() for c in result.cells] == _scalar_rows(tasks)
