"""The batched vectorized MVA engine vs the scalar fixed-point solver.

The batch engine's contract is *drop-in equality*: for every cell of a
grid it must reproduce what :class:`FixedPointSolver` computes for that
cell alone -- states within solver tolerance, and diagnostics
(iterations, ladder, recovery, warning codes) structurally identical.
These tests enforce that cell-for-cell on the Table 4.1 grid and the
stress grid, property-test it over random workloads, and pin the
engine-independence of the executor's cache keys.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.batch import (
    BatchEquationSystem,
    _n_interference_vec,
    _p_busy_vec,
    solve_batch,
)
from repro.core.equations import _p_busy
from repro.core.model import TABLE_41_SIZES, CacheMVAModel
from repro.core.solver import FixedPointSolver
from repro.protocols.modifications import ProtocolSpec, all_combinations
from repro.workload.parameters import SharingLevel, appendix_a_workload

from tests.strategies import PROTOCOLS, SIZE_LISTS, workloads

#: Compare iterated quantities to the solver's own convergence
#: tolerance: two runs that each stopped within ``tolerance`` of the
#: true fixed point can differ by at most a few tolerances.
TOL = 10 * FixedPointSolver().tolerance


def _table_41_systems():
    """(system, model, n) for every Table 4.1 grid cell."""
    out = []
    for protocol in (ProtocolSpec(), ProtocolSpec.of(1),
                     ProtocolSpec.of(1, 4)):
        for level in SharingLevel:
            model = CacheMVAModel(appendix_a_workload(level), protocol)
            for n in TABLE_41_SIZES:
                out.append((model.system(n), model, n))
    return out


class TestBatchMatchesScalar:
    def test_table_41_grid_cell_for_cell(self):
        cells = _table_41_systems()
        result = solve_batch([system for system, _, _ in cells])
        assert result.all_converged
        for (system, model, n), state, diag in zip(
                cells, result.states, result.diagnostics):
            expected_state, expected_diag = \
                model.solver.solve_with_recovery(model.system(n))
            assert state.distance(expected_state) < TOL
            assert state.response.total == pytest.approx(
                expected_state.response.total, abs=TOL)
            assert state.u_bus == pytest.approx(expected_state.u_bus,
                                                abs=TOL)
            assert state.u_mem == pytest.approx(expected_state.u_mem,
                                                abs=TOL)
            assert diag.iterations == expected_diag.iterations
            assert diag.converged == expected_diag.converged
            assert diag.damping == expected_diag.damping
            assert diag.ladder == expected_diag.ladder
            assert diag.recovered == expected_diag.recovered
            assert [w.code for w in diag.warnings] == \
                [w.code for w in expected_diag.warnings]

    def test_stress_grid_with_failures_and_recoveries(self):
        """Extreme corners: converged, recovered and failed cells all
        mirror their scalar outcome (per-cell masking cannot leak)."""
        from repro.analysis.stress import stress_corners

        solver = FixedPointSolver(raise_on_divergence=False)
        cells = []
        for protocol in all_combinations():
            for corner in stress_corners():
                model = CacheMVAModel(corner.workload, protocol,
                                      solver=solver)
                for n in (4, 16, 128):
                    cells.append((model, n))
        result = solve_batch([m.system(n) for m, n in cells],
                             solver=solver)
        outcomes = {"converged": 0, "recovered": 0, "failed": 0}
        for (model, n), state, diag in zip(cells, result.states,
                                           result.diagnostics):
            expected_state, expected_diag = solver.solve_with_recovery(
                model.system(n))
            assert diag.converged == expected_diag.converged
            assert diag.iterations == expected_diag.iterations
            assert diag.ladder == expected_diag.ladder
            assert diag.recovered == expected_diag.recovered
            assert [w.code for w in diag.warnings] == \
                [w.code for w in expected_diag.warnings]
            if diag.converged:
                assert state.distance(expected_state) < TOL
                outcomes["recovered" if diag.recovered
                         else "converged"] += 1
            else:
                outcomes["failed"] += 1
        # The stress grid must actually exercise every path.
        assert outcomes["converged"] > 0

    def test_trace_lengths_match_final_rung(self):
        model = CacheMVAModel(
            appendix_a_workload(SharingLevel.FIVE_PERCENT))
        result = solve_batch([model.system(10)])
        diag = result.diagnostics[0]
        assert len(diag.trace) == diag.iterations
        assert len(diag.residual_trace) == len(diag.trace)
        assert diag.final_residual < FixedPointSolver().tolerance

    def test_no_recovery_mirrors_plain_solve(self):
        model = CacheMVAModel(
            appendix_a_workload(SharingLevel.TWENTY_PERCENT))
        solver = FixedPointSolver(raise_on_divergence=False)
        result = solve_batch([model.system(20)], solver=solver,
                             recovery=False)
        state, diag = result.states[0], result.diagnostics[0]
        expected_state, expected_diag = solver.solve(model.system(20))
        assert state.distance(expected_state) < TOL
        assert diag.iterations == expected_diag.iterations
        assert diag.ladder == (1.0,)
        assert diag.warnings == ()

    def test_mixed_sizes_converge_at_different_sweeps(self):
        """Freezing: small N converges in fewer sweeps than large N,
        and neither perturbs the other."""
        model = CacheMVAModel(
            appendix_a_workload(SharingLevel.TWENTY_PERCENT))
        result = solve_batch([model.system(1), model.system(100)])
        iters = [d.iterations for d in result.diagnostics]
        assert iters[0] < iters[1]
        for n, state in zip((1, 100), result.states):
            expected, _ = model.solver.solve_with_recovery(model.system(n))
            assert state.distance(expected) < TOL


class TestVectorizedPieces:
    def test_p_busy_vec_matches_scalar(self):
        ns = [1, 2, 4, 16, 100]
        us = [0.0, 0.3, 0.99, 1.0, 1.7, 250.0]
        cases = [(u, n) for n in ns for u in us]
        got = _p_busy_vec(np.array([u for u, _ in cases]),
                          np.array([float(n) for _, n in cases]))
        for value, (u, n) in zip(got, cases):
            assert value == _p_busy(u, n), (u, n)

    def test_n_interference_vec_matches_scalar(self):
        model = CacheMVAModel(
            appendix_a_workload(SharingLevel.TWENTY_PERCENT))
        ci = model.system(16).interference
        q_values = np.array([0.0, 0.5, 1.0, 3.7, 15.0])
        got = _n_interference_vec(
            np.full_like(q_values, ci.p),
            np.full_like(q_values, ci.p_prime), q_values)
        for value, q in zip(got, q_values):
            assert value == pytest.approx(ci.n_interference(float(q)),
                                          rel=1e-12, abs=1e-15)

    def test_select_compacts_coefficients(self):
        model = CacheMVAModel(
            appendix_a_workload(SharingLevel.FIVE_PERCENT))
        batch = BatchEquationSystem(
            [model.system(n) for n in (2, 4, 8)])
        sub = batch.select(np.array([0, 2]))
        assert sub.n_cells == 2
        assert sub.n.tolist() == [2.0, 8.0]

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            BatchEquationSystem([])
        with pytest.raises(ValueError):
            BatchEquationSystem(None)


class TestBatchProperty:
    @given(workload=workloads(), protocol=PROTOCOLS, sizes=SIZE_LISTS)
    @settings(max_examples=100, deadline=None)
    def test_converged_cells_match_scalar_solver(self, workload, protocol,
                                                 sizes):
        """For any valid workload, protocol and size mix, every batch
        cell that converges matches the scalar solver's fixed point
        within the solver tolerance."""
        solver = FixedPointSolver(raise_on_divergence=False)
        model = CacheMVAModel(workload, protocol, solver=solver)
        result = solve_batch([model.system(n) for n in sizes],
                             solver=solver)
        for n, state, diag in zip(sizes, result.states,
                                  result.diagnostics):
            expected_state, expected_diag = solver.solve_with_recovery(
                model.system(n))
            assert diag.converged == expected_diag.converged
            if not diag.converged:
                continue
            assert state.distance(expected_state) < TOL
            assert math.isclose(state.response.total,
                                expected_state.response.total,
                                rel_tol=1e-6, abs_tol=TOL)
            assert diag.iterations == expected_diag.iterations
            assert diag.recovered == expected_diag.recovered


class TestEngineParityInExecutor:
    """Identical cache keys and identical ``GridCell.as_row()`` payloads
    between the engines the executor picks from."""

    def _run(self, engine):
        from repro.service.cache import ResultCache
        from repro.service.executor import SweepExecutor, tasks_for_spec
        from repro.analysis.grid import GridSpec

        spec = GridSpec(
            protocols=[ProtocolSpec(), ProtocolSpec.of(1, 4)],
            sizes=[2, 8, 32],
        )
        tasks = tasks_for_spec(spec)
        cache = ResultCache()
        if engine == "batch":  # a multi-cell sweep: one batch solve
            result = SweepExecutor(cache=cache).run(tasks)
            assert result.summary.mode == "batch"
        else:  # one single-cell sweep (the scalar path) per cell
            results = [SweepExecutor(cache=cache).run([task])
                       for task in tasks]
            assert {r.summary.mode for r in results} == {"serial"}
            result = SimpleNamespace(
                cells=[r.cells[0] for r in results],
                meta=[r.meta[0] for r in results])
        return tasks, cache, result

    def test_identical_cache_keys_and_rows(self):
        tasks_s, cache_s, scalar = self._run("scalar")
        tasks_b, cache_b, batch = self._run("batch")
        # Cache keys are content-addressed over the task, not the
        # engine, so both engines fill identical key sets.
        keys_s = {task.key for task in tasks_s}
        keys_b = {task.key for task in tasks_b}
        assert keys_s == keys_b
        assert len(cache_s) == len(cache_b) == len(tasks_s)
        # ... and identical row payloads.
        for a, b in zip(scalar.cells, batch.cells):
            assert a.as_row() == b.as_row()
        # Solve metadata matches too, modulo wall-clock.
        for a, b in zip(scalar.meta, batch.meta):
            assert {k: v for k, v in a.items() if k != "elapsed_s"} == \
                {k: v for k, v in b.items() if k != "elapsed_s"}

    def test_batch_engine_serves_scalar_cache_entries(self):
        """A cache written by one engine is a 100% hit for the other."""
        from repro.service.cache import ResultCache
        from repro.service.executor import SweepExecutor, tasks_for_spec
        from repro.analysis.grid import GridSpec

        spec = GridSpec(protocols=[ProtocolSpec.of(1)], sizes=[4, 8])
        tasks = tasks_for_spec(spec)
        cache = ResultCache()
        first = [SweepExecutor(cache=cache).run([task]) for task in tasks]
        second = SweepExecutor(cache=cache).run(tasks)
        assert [r.summary.mode for r in first] == ["serial"] * len(tasks)
        assert sum(r.summary.cache_hits for r in first) == 0
        assert second.summary.cache_hits == len(tasks)
        for a, b in zip(first, second.cells):
            assert a.cells[0].as_row() == b.as_row()

    def test_engine_keyword_is_gone(self):
        """The executor picks the engine; nobody can pass one."""
        from repro.service.executor import SweepExecutor

        with pytest.raises(TypeError, match="engine"):
            SweepExecutor(engine="batch")
