"""The tiered verification run and its CLI face (``repro verify``).

Covers: the quick tier passes on main (the CI gate), sections and
metrics are populated, the end-to-end perturbation property (a broken
equation turns the CLI exit code non-zero with structured JSON
output), and the ``--update-golden`` / ``--output`` flows.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.cli import main
from repro.service.metrics import MetricsRegistry
from repro.verify import run_verify
from repro.verify.violations import Severity


@pytest.fixture(scope="module")
def quick_report():
    """One quick-tier run shared by the read-only assertions."""
    return run_verify(tier="quick")


class TestRunVerify:
    def test_quick_tier_passes_on_main(self, quick_report):
        assert quick_report.ok, quick_report.errors[:5]
        assert quick_report.exit_code == 0
        assert quick_report.checks > 10_000

    def test_quick_tier_is_fast_enough_for_ci(self, quick_report):
        """ISSUE acceptance: the push gate stays under 60 s.  The
        measured budget is ~3 s, so 30 s here leaves slack for slow CI
        machines without letting the tier quietly bloat past the
        contract."""
        assert quick_report.elapsed_seconds < 30.0

    def test_sections_cover_every_checker_family(self, quick_report):
        assert set(quick_report.sections) >= {
            "derived-inputs", "interference", "fixed-points",
            "sweep-shape", "protocol-machine", "engine-parity",
            "golden-corpus", "mva-vs-des"}
        assert all(count > 0
                   for count in quick_report.sections.values())

    def test_only_documented_warnings_on_main(self, quick_report):
        """The seed code's sole soft spot is the deep-saturation
        utilization artifact; any new warning law appearing here is a
        behaviour change that needs a decision, not a shrug."""
        assert {v.law for v in quick_report.warnings} <= {
            "utilization-saturated"}

    def test_metrics_counters_populated(self):
        registry = MetricsRegistry()
        report = run_verify(tier="quick", metrics=registry)
        text = registry.render()
        assert "repro_verify_checks_total" in text
        assert 'section="engine-parity"' in text
        # Warnings are counted by law and severity.
        if report.warnings:
            assert "repro_verify_violations_total" in text
            assert 'severity="warning"' in text

    def test_rejects_unknown_tier(self):
        with pytest.raises(ValueError, match="tier"):
            run_verify(tier="exhaustive")

    def test_missing_golden_fails_the_run(self, tmp_path):
        report = run_verify(tier="quick",
                            golden_path=tmp_path / "absent.json")
        assert not report.ok
        assert any(v.law == "golden-missing" for v in report.errors)

    def test_report_round_trips_to_json(self, quick_report):
        payload = json.loads(quick_report.to_json())
        assert payload["ok"] is True
        assert payload["tier"] == "quick"
        assert payload["checks"] == quick_report.checks
        assert isinstance(payload["violations"], list)

    def test_report_counts_reachable_states_per_combination(
            self, quick_report):
        states = json.loads(quick_report.to_json())["reachable_states"]
        assert len(states) == 16
        assert states["Write-Once"] == {"3": 14, "4": 24}
        assert all(counts["3"] < counts["4"] for counts in states.values())


class TestVerifyCli:
    def test_quick_exits_zero_on_main(self, capsys):
        assert main(["verify", "--tier", "quick"]) == 0
        out = capsys.readouterr().out
        assert "verdict: ok" in out

    def test_json_output(self, capsys):
        assert main(["verify", "--tier", "quick", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True

    def test_output_artifact_written(self, tmp_path, capsys):
        artifact = tmp_path / "report.json"
        assert main(["verify", "--tier", "quick",
                     "--output", str(artifact)]) == 0
        payload = json.loads(artifact.read_text())
        assert payload["tier"] == "quick"
        assert payload["checks"] > 0

    def test_update_golden_writes_corpus(self, tmp_path, capsys):
        path = tmp_path / "golden.json"
        assert main(["verify", "--update-golden",
                     "--golden", str(path)]) == 0
        assert "regenerated" in capsys.readouterr().out
        corpus = json.loads(path.read_text())
        assert corpus["cells"]

    def test_golden_override_used_for_comparison(self, tmp_path,
                                                 capsys):
        """A verify pointed at a stale corpus fails; the same corpus
        freshly regenerated passes.  Together with the exit codes this
        is the documented update workflow end to end."""
        path = tmp_path / "golden.json"
        main(["verify", "--update-golden", "--golden", str(path)])
        corpus = json.loads(path.read_text())
        corpus["cells"][0]["speedup"] += 0.1
        path.write_text(json.dumps(corpus))
        capsys.readouterr()
        assert main(["verify", "--tier", "quick", "--json",
                     "--golden", str(path)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert any(v["law"] == "golden-drift"
                   for v in payload["violations"])

    def test_perturbed_equation_turns_the_gate_red(self, monkeypatch,
                                                   capsys):
        """ISSUE acceptance, end to end: monkeypatch one equation and
        `repro verify --tier quick` must exit non-zero with structured
        output attributing the failure."""
        from repro.core import equations as eq_mod

        original = eq_mod.EquationSystem.step

        def inflated(self, state):
            new = original(self, state)
            return dataclasses.replace(new, w_bus=new.w_bus * 1.5)

        monkeypatch.setattr(eq_mod.EquationSystem, "step", inflated)
        assert main(["verify", "--tier", "quick", "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        laws = {v["law"] for v in payload["violations"]
                if v["severity"] == "error"}
        # The same perturbation is caught from independent angles:
        # against the frozen corpus and against the seeded DES.
        assert "golden-drift" in laws
        assert "mva-des-speedup" in laws


class TestSeverityPolicy:
    def test_warning_only_report_exits_zero(self):
        """Warnings surface but never gate; errors gate.  Regression
        for the Severity contract the CI job relies on."""
        from repro.verify.violations import VerifyReport, Violation

        report = VerifyReport(tier="quick")
        report.add([Violation(law="soft", subject="s", message="m",
                              severity=Severity.WARNING)], 5, "x")
        assert report.exit_code == 0
        report.add([Violation(law="hard", subject="s", message="m")],
                   1, "x")
        assert report.exit_code == 1
