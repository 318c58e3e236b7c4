"""Unit tests for the invariant checker (repro.verify.invariants).

Two angles per law family: the *seed code passes* (running the audits
on honestly solved models yields zero error-severity violations), and
the *checker actually checks* (injecting a corrupted value makes the
right law fire with a structured, attributable record).  The second
half is what makes the first half evidence rather than vacuity.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.model import CacheMVAModel, build_report
from repro.protocols.modifications import ProtocolSpec, all_combinations
from repro.protocols.states import BlockState
from repro.protocols.transactions import BusOp
from repro.verify import (
    Audit,
    Severity,
    VerifyReport,
    audit_derived_inputs,
    audit_diagnostics,
    audit_interference,
    audit_protocol_machine,
    audit_report,
    audit_state,
    audit_sweep_shape,
)
from repro.verify.invariants import CAPACITY_OVERSHOOT
from repro.workload.parameters import SharingLevel, appendix_a_workload


@pytest.fixture(scope="module")
def solved():
    """One honestly solved cell: (model, system, state, diag, report)."""
    model = CacheMVAModel(
        appendix_a_workload(SharingLevel.FIVE_PERCENT),
        ProtocolSpec.of(1, 4))
    system = model.system(10)
    state, diag = model.solver.solve(system)
    report = build_report(system, "WO+1+4", "5%", state, diag)
    return model, system, state, diag, report


def _errors(audit: Audit):
    return [v for v in audit.violations if v.severity is Severity.ERROR]


class TestAuditMechanics:
    def test_check_counts_and_records(self):
        audit = Audit(subject="unit")
        assert audit.check(True, "law-a", "fine")
        assert not audit.check(False, "law-b", "broken", observed=2.0,
                               expected="<= 1", equation="eq. (7)",
                               extra="context")
        assert audit.checks == 2
        (violation,) = audit.violations
        assert violation.law == "law-b"
        assert violation.subject == "unit"
        assert violation.context == {"extra": "context"}
        assert "eq. (7)" in violation.describe()

    def test_merge_accumulates(self):
        a, b = Audit(subject="a"), Audit(subject="b")
        a.check(True, "x", "m")
        b.check(False, "y", "m")
        a.merge(b)
        assert a.checks == 2
        assert [v.law for v in a.violations] == ["y"]

    def test_report_verdict_and_exit_code(self):
        report = VerifyReport(tier="quick")
        assert not report.ok  # zero checks is not a pass
        audit = Audit(subject="s")
        audit.check(True, "x", "m")
        audit.check(False, "soft", "m", severity=Severity.WARNING)
        report.add(audit.violations, audit.checks, "section")
        assert report.ok and report.exit_code == 0  # warnings tolerated
        audit2 = Audit(subject="s")
        audit2.check(False, "hard", "m")
        report.add(audit2.violations, audit2.checks, "section")
        assert not report.ok and report.exit_code == 1
        assert report.sections == {"section": 3}
        assert "FAILED" in report.text()


class TestSeedCodeSatisfiesLaws:
    """Satellite check: the audits hold on the seed model everywhere."""

    def test_derived_inputs_all_combinations(self):
        for spec in all_combinations():
            for level in SharingLevel:
                model = CacheMVAModel(appendix_a_workload(level), spec)
                audit = audit_derived_inputs(model.inputs, spec.label)
                assert not audit.violations, audit.violations

    def test_solved_cell_passes_every_audit(self, solved):
        model, system, state, diag, report = solved
        for audit in (
                audit_state(system, state, "cell"),
                audit_report(report, "cell"),
                audit_diagnostics(diag, model.solver.tolerance, "cell"),
                audit_interference(system.interference, 10, "cell")):
            assert not _errors(audit), audit.violations

    def test_deep_saturation_is_warning_not_error(self):
        """Documented policy: the unclamped eq-(7) U_bus may exceed 1
        by a whisker in deep saturation (observed <= 1.005 at N=100
        on the Appendix-A grid).  That must stay a WARNING -- the run
        still passes -- while anything past the 20 % allowance is an
        ERROR.  Regression for the seed behaviour at N=100."""
        model = CacheMVAModel(
            appendix_a_workload(SharingLevel.ONE_PERCENT),
            ProtocolSpec.of(1, 4))
        system = model.system(100)
        state, diag = model.solver.solve(system)
        assert state.u_bus > 1.0  # the artifact this policy exists for
        audit = audit_state(system, state, "N=100")
        assert not _errors(audit)
        assert any(v.law == "utilization-saturated"
                   for v in audit.violations)

    def test_single_cache_has_no_interference(self):
        model = CacheMVAModel(
            appendix_a_workload(SharingLevel.TWENTY_PERCENT))
        audit = audit_interference(model.system(1).interference, 1, "N=1")
        assert not audit.violations

    def test_sweep_shape_on_honest_sweep(self):
        model = CacheMVAModel(
            appendix_a_workload(SharingLevel.FIVE_PERCENT))
        reports = [model.solve(n) for n in (1, 5, 10, 20)]
        audit = audit_sweep_shape(reports, "sweep")
        assert not audit.violations


class TestCorruptionIsCaught:
    """The adversarial half: break one value, the right law fires."""

    def test_negative_waiting_time(self, solved):
        _, system, state, _, _ = solved
        bad = dataclasses.replace(state, w_bus=-0.25)
        audit = audit_state(system, bad, "bad")
        assert any(v.law == "waiting-nonnegative"
                   for v in _errors(audit))

    def test_broken_littles_law(self, solved):
        _, system, state, _, _ = solved
        bad = dataclasses.replace(state, u_bus=state.u_bus * 0.5)
        audit = audit_state(system, bad, "bad")
        laws = {v.law for v in _errors(audit)}
        assert "littles-law-bus" in laws

    def test_utilization_past_allowance_is_error(self, solved):
        _, system, state, _, _ = solved
        bad = dataclasses.replace(state,
                                  u_mem=CAPACITY_OVERSHOOT + 0.05)
        audit = audit_state(system, bad, "bad")
        assert any(v.law == "utilization-range" for v in _errors(audit))

    def test_not_a_fixed_point(self, solved):
        _, system, state, _, _ = solved
        bad = dataclasses.replace(state, q_bus=state.q_bus + 0.5)
        audit = audit_state(system, bad, "bad")
        assert any(v.law == "fixed-point-residual"
                   for v in _errors(audit))

    def test_report_utilization_corruption(self, solved):
        *_, report = solved
        bad = dataclasses.replace(report, u_bus=1.5)
        audit = audit_report(bad, "bad")
        assert any(v.law == "utilization-range" for v in _errors(audit))

    def test_diagnostics_converged_above_tolerance(self, solved):
        model, _, _, diag, _ = solved
        bad = dataclasses.replace(diag, converged=True,
                                  final_residual=1.0)
        audit = audit_diagnostics(bad, model.solver.tolerance, "bad")
        assert any(v.law == "converged-residual"
                   for v in _errors(audit))

    def test_diagnostics_bad_ladder(self, solved):
        model, _, _, diag, _ = solved
        bad = dataclasses.replace(diag, ladder=(0.5, 1.0),
                                  recovered=True)
        audit = audit_diagnostics(bad, model.solver.tolerance, "bad")
        assert any(v.law == "ladder-descending"
                   for v in _errors(audit))

    def test_sweep_shape_catches_utilization_drop(self):
        model = CacheMVAModel(
            appendix_a_workload(SharingLevel.FIVE_PERCENT))
        reports = [model.solve(n) for n in (5, 10)]
        corrupted = dataclasses.replace(reports[1], u_bus=0.0)
        audit = audit_sweep_shape([reports[0], corrupted], "sweep")
        assert any(v.law == "bus-utilization-monotone"
                   for v in _errors(audit))

    def test_sweep_shape_rejects_duplicate_sizes(self):
        model = CacheMVAModel(
            appendix_a_workload(SharingLevel.FIVE_PERCENT))
        report = model.solve(8)
        audit = audit_sweep_shape([report, report], "sweep")
        assert any(v.law == "sweep-distinct-sizes"
                   for v in _errors(audit))


class TestProtocolMachineAudit:
    def test_every_combination_passes_the_reachability_proof(self):
        for spec in all_combinations():
            audit = audit_protocol_machine(spec, spec.label)
            assert audit.checks > 0
            assert not audit.violations, (spec.label, audit.violations)
            assert set(audit.reachable_states) == {3, 4}
            # A fourth cache reaches configurations three cannot.
            assert 0 < audit.reachable_states[3] < audit.reachable_states[4]

    def test_detects_planted_coherence_bug(self, monkeypatch):
        """Force the machine to leave memory staleness inconsistent and
        confirm the external check (not only the machine's own assert)
        reports it as a structured violation."""
        from repro.protocols import machine as machine_mod

        original = machine_mod.CoherenceMachine.access

        def stale(self, cache_id, op):
            result = original(self, cache_id, op)
            self.memory_fresh = not self.memory_fresh
            return result

        monkeypatch.setattr(machine_mod.CoherenceMachine, "access",
                            stale)
        audit = audit_protocol_machine(ProtocolSpec(), "WO")
        assert any(v.law in ("memory-freshness", "protocol-transition")
                   for v in _errors(audit))

    def test_write_hit_that_keeps_other_copies_fails(self, monkeypatch):
        """A write hit that writes its word through but leaves the other
        copies valid without updating them keeps every state law, so
        only the data-value law can catch the stale copies."""
        from repro.protocols import machine as machine_mod

        def keep_copies(self, cache_id):
            return machine_mod.SnoopResult(bus_ops=(BusOp.WRITE_WORD,))

        monkeypatch.setattr(machine_mod.CoherenceMachine,
                            "_first_write_through", keep_copies)
        audit = audit_protocol_machine(ProtocolSpec(), "WO")
        assert {v.law for v in _errors(audit)} == {"data-value"}
        assert any("read(0) read(1) write(0)" in v.message
                   for v in audit.violations)

    @pytest.mark.parametrize("mods", [(2,), (1, 2)])
    def test_flags_the_lost_write_of_the_old_write_through(
            self, monkeypatch, mods):
        """The write-through before write-back duty moved to the writer:
        the writer kept the duty only if it owned the block itself, so
        a write to a supplied copy marked memory fresh while memory
        still missed the owner's write."""
        from repro.protocols import machine as machine_mod

        def old_write_through(self, cache_id):
            actions = {i: machine_mod.SnoopAction.INVALIDATE
                       for i in self.holders() if i != cache_id}
            for i in actions:
                self.states[i] = BlockState.INVALID
            was_wback = self.states[cache_id].wback
            self.states[cache_id] = (BlockState.EXCLUSIVE_WBACK if was_wback
                                     else BlockState.EXCLUSIVE_CLEAN)
            self.memory_fresh = not was_wback
            return machine_mod.SnoopResult(bus_ops=(BusOp.WRITE_WORD,),
                                           actions=actions)

        monkeypatch.setattr(machine_mod.CoherenceMachine,
                            "_first_write_through", old_write_through)
        spec = ProtocolSpec.of(*mods)
        audit = audit_protocol_machine(spec, spec.label)
        assert {v.law for v in _errors(audit)} == {"data-value"}
        assert any("write(0) read(1) write(1) (3 caches)" in v.message
                   for v in audit.violations)
