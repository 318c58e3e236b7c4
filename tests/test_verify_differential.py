"""The differential oracle: cross-engine parity, and proof it can fail.

The acceptance bar for an oracle is not "it passes on main" but "it
fires when an engine is deliberately perturbed".  Each perturbation
here monkeypatches one equation in one engine and asserts the exact
law that must catch it does, with structured output -- then the
unperturbed runs pin the parity claims themselves (scalar-vs-batch at
zero tolerance, MVA-vs-DES inside the EXPERIMENTS.md bands).
"""

from __future__ import annotations

import pytest

import repro.service.executor as executor_module
from repro.protocols.modifications import ProtocolSpec, all_combinations
from repro.service.executor import CellTask, evaluate_task
from repro.verify import (
    TOLERANCES,
    diff_mva_des,
    diff_scalar_batch,
    scalar_sweep,
)
from repro.verify.violations import Severity
from repro.workload.parameters import SharingLevel, appendix_a_workload


def _tasks(sizes=(1, 4, 16)):
    workload = appendix_a_workload(SharingLevel.FIVE_PERCENT)
    return [CellTask(protocol=spec, sharing_label="5%",
                     workload=workload, n=n)
            for spec in (ProtocolSpec(), ProtocolSpec.of(2, 3))
            for n in sizes]


def _errors(audit):
    return [v for v in audit.violations if v.severity is Severity.ERROR]


class TestScalarVsBatch:
    def test_zero_tolerance_parity_holds(self):
        audit = diff_scalar_batch(_tasks())
        assert audit.checks > len(_tasks())  # several fields per cell
        assert not audit.violations, audit.violations

    def test_all_sixteen_combinations_hold(self):
        workload = appendix_a_workload(SharingLevel.TWENTY_PERCENT)
        tasks = [CellTask(protocol=spec, sharing_label="20%",
                          workload=workload, n=10)
                 for spec in all_combinations()]
        audit = diff_scalar_batch(tasks)
        assert not audit.violations, audit.violations

    def test_perturbed_batch_engine_is_caught(self, monkeypatch):
        """Skew the batch engine's eq-(8) bus-wait probability by one
        part in 1e6; the zero-tolerance oracle must flag every cell
        where the solve actually exercises the bus."""
        from repro.core import batch as batch_mod

        original = batch_mod._p_busy_vec

        def skewed(u, n, multi=None, n_f=None):
            return original(u, n, multi=multi, n_f=n_f) * (1.0 + 1e-6)

        monkeypatch.setattr(batch_mod, "_p_busy_vec", skewed)
        audit = diff_scalar_batch(_tasks(sizes=(4, 16)))
        parity = [v for v in _errors(audit) if v.law == "engine-parity"]
        assert parity, "a perturbed engine must not pass the oracle"
        # The violation is attributable: it names the field and both
        # engines' values.
        assert all(v.context.get("field") for v in parity)
        assert all("scalar" in v.context and "batch" in v.context
                   for v in parity)

    def test_scalar_leg_never_touches_the_batch_engine(self, monkeypatch):
        """The oracle stays two-sided: its scalar leg is the per-cell
        path even though the executor would batch these cells."""
        tasks = _tasks()
        expected = [evaluate_task(task)["cell"] for task in tasks]

        def no_batch(batch):
            raise AssertionError("the scalar leg reached the batch engine")
        monkeypatch.setattr(executor_module, "evaluate_mva_batch", no_batch)
        result = scalar_sweep(tasks)
        assert result.summary.failed == 0
        assert [cell.as_row() for cell in result.cells] == expected

    def test_perturbed_scalar_engine_is_caught(self, monkeypatch):
        """Skew the per-cell path's speedup by one part in 1e6: the
        oracle must see it, so the scalar leg really is that path."""
        real = executor_module.evaluate_task

        def skewed(task):
            value = real(task)
            value["cell"]["speedup"] *= 1.0 + 1e-6
            return value
        monkeypatch.setattr(executor_module, "evaluate_task", skewed)
        audit = diff_scalar_batch(_tasks())
        parity = [v for v in _errors(audit) if v.law == "engine-parity"]
        assert {v.context["field"] for v in parity} == {"speedup"}
        assert len(parity) == len(_tasks())


class TestMvaVsDes:
    def _task(self, spec=ProtocolSpec.of(1), n=6, requests=4_000):
        return CellTask(
            protocol=spec, sharing_label="5%",
            workload=appendix_a_workload(SharingLevel.FIVE_PERCENT),
            n=n, method="sim", sim_requests=requests, sim_seed=42)

    def test_agreement_within_band(self):
        audit = diff_mva_des(self._task())
        assert not _errors(audit), audit.violations

    def test_sim_stats_audited_in_same_pass(self):
        """diff_mva_des folds the sim-stats laws in, so the check count
        reflects both the parity laws and the DES-internal ones."""
        audit = diff_mva_des(self._task())
        assert audit.checks > 10

    def test_perturbed_mva_equation_is_caught(self, monkeypatch):
        """Inflate the eq-(5) bus waiting time by 50 % inside the
        sweep; the solved speedup leaves the EXPERIMENTS.md agreement
        band (~28 % relative error at N=10) and the differential must
        report it against the DES arbiter."""
        import dataclasses

        from repro.core import equations as eq_mod

        original = eq_mod.EquationSystem.step

        def inflated(self, state):
            new = original(self, state)
            return dataclasses.replace(new, w_bus=new.w_bus * 1.5)

        monkeypatch.setattr(eq_mod.EquationSystem, "step", inflated)
        audit = diff_mva_des(self._task(n=10))
        speedup = [v for v in _errors(audit)
                   if v.law == "mva-des-speedup"]
        assert speedup, "a perturbed MVA must not pass the DES oracle"
        (violation,) = speedup
        assert violation.context["rel_error"] > \
            TOLERANCES["mva-vs-des-speedup"]
        assert violation.context["seed"] == 42

    def test_band_override(self):
        """An impossible band makes even an honest cell fail -- the
        band plumbing is live, not decorative."""
        audit = diff_mva_des(self._task(), speedup_band=1e-9)
        assert any(v.law == "mva-des-speedup" for v in _errors(audit))


class TestDeclaredTolerances:
    def test_scalar_batch_tolerance_is_exactly_zero(self):
        assert TOLERANCES["scalar-vs-batch"] == 0.0

    def test_mva_des_band_matches_experiments(self):
        """EXPERIMENTS.md: worst measured speedup error 5.4 %, band
        6.5 %.  Changing the band is a documented decision, not a
        drive-by edit."""
        assert TOLERANCES["mva-vs-des-speedup"] == pytest.approx(0.065)
