"""The verification run: tiers, sections, metrics.

``run_verify`` drives every checker in :mod:`repro.verify` over the
full protocol family and folds the results into one
:class:`~repro.verify.violations.VerifyReport`:

* **quick** (< 60 s, the CI push gate): invariant audits on every one
  of the 16 modification combinations x 3 sharing levels x 4 sizes,
  sweep-shape audits, protocol model-checking at depth 3,
  scalar-vs-batch differential at zero tolerance on the same grid, the
  golden-corpus diff, and a seeded all-16 MVA-vs-DES pass at reduced
  sample size.
* **full**: quick, plus deeper protocol model-checking (depth 4),
  larger DES samples at two system sizes (multi-seed through the
  vector engine: the total sample is split over ``_DES_FULL_REPS``
  lockstep replications, so the MVA-vs-DES check also carries an
  across-seed band, and the whole corpus runs as one lockstep pack at
  a fraction of the scalar engine's wall-clock cost), the
  scalar-vs-vector DES
  statistical-equivalence oracle on representative cells, and the
  Section-5 stress corners through the failure-isolating executor.

Every violation is counted in ``repro_verify_violations_total``
(labelled by law and severity) when a metrics registry is supplied;
``repro_verify_checks_total`` counts the laws evaluated, so rates stay
meaningful.
"""

from __future__ import annotations

import time
from pathlib import Path

from repro.analysis.stress import run_stress
from repro.core.model import CacheMVAModel, build_report
from repro.core.solver import FixedPointSolver
from repro.protocols.modifications import all_combinations
from repro.service.executor import CellTask, sim_config
from repro.service.metrics import MetricsRegistry
from repro.sim.system import SimulationResult
from repro.sim.vector import simulate_pack
from repro.verify import differential, golden, invariants
from repro.verify.invariants import Audit
from repro.verify.violations import VerifyReport
from repro.workload.parameters import SharingLevel, appendix_a_workload

#: The tiers ``run_verify`` understands.
TIERS = ("quick", "full")

#: Sizes audited per (protocol, sharing): degenerate, pre-knee, knee,
#: deep saturation.
AUDIT_SIZES: tuple[int, ...] = (1, 2, 10, 100)

#: DES sample sizes per tier (measured requests / system size).
_DES_QUICK = (8, 4_000)
_DES_FULL_SIZES = (4, 16)
_DES_FULL_REQUESTS = 80_000

#: Replications for the full tier's vector-engine DES cells: the
#: ``_DES_FULL_REQUESTS`` total sample is split over this many lockstep
#: replications, buying an across-seed band on top of the point
#: estimate.  Keep the per-replication window (total / reps) at 5000+
#: measured requests: shorter windows carry a visible small-sample bias
#: at saturated sizes (calibrated in docs/validation.md).
_DES_FULL_REPS = 16

#: Cells put through the scalar-vs-vector statistical-equivalence
#: oracle in the full tier (protocol modification numbers); the base
#: protocol plus the all-modifications corner bracket the family.
_EQUIVALENCE_MODS: tuple[tuple[int, ...], ...] = ((), (1, 2, 3, 4))
_EQUIVALENCE_REQUESTS = 4_000
_EQUIVALENCE_REPS = 6

#: Fixed seed for the differential DES runs (results are then
#: reproducible and cacheable; the determinism tests pin the same one).
DES_SEED = 1234


def _record(metrics: MetricsRegistry | None, report: VerifyReport,
            audit: Audit, section: str) -> None:
    report.add(audit.violations, audit.checks, section)
    if metrics is None:
        return
    metrics.counter(
        "repro_verify_checks_total",
        "Verification laws evaluated.",
    ).labels(section=section).inc(audit.checks)
    for violation in audit.violations:
        metrics.counter(
            "repro_verify_violations_total",
            "Verification laws violated.",
        ).labels(law=violation.law,
                 severity=violation.severity.value).inc()


def run_verify(tier: str = "quick",
               metrics: MetricsRegistry | None = None,
               golden_path: Path | str = golden.DEFAULT_CORPUS_PATH,
               sim_engine: str = "auto",
               ) -> VerifyReport:
    """Run every checker at the given tier; never raises on violations.

    ``sim_engine`` selects the DES backend for the MVA-vs-DES tier:
    ``"auto"`` (default) keeps the quick tier on the scalar reference
    engine and runs the full tier's larger samples through the vector
    engine as ``_DES_FULL_REPS`` lockstep replications; ``"scalar"`` /
    ``"vector"`` force one backend for either tier.
    """
    if tier not in TIERS:
        raise ValueError(f"tier must be one of {TIERS}, got {tier!r}")
    if sim_engine not in ("auto", "scalar", "vector"):
        raise ValueError("sim_engine must be 'auto', 'scalar' or "
                         f"'vector', got {sim_engine!r}")
    if sim_engine == "auto":
        sim_engine = "vector" if tier == "full" else "scalar"
    started = time.perf_counter()
    report = VerifyReport(tier=tier)
    solver = FixedPointSolver(raise_on_divergence=False)
    protocols = all_combinations()

    # -- invariant audits over the whole family ------------------------
    mva_tasks: list[CellTask] = []
    for spec in protocols:
        for level in SharingLevel:
            workload = appendix_a_workload(level)
            model = CacheMVAModel(workload, protocol=spec)
            subject = f"{spec.label} {level.label}"
            _record(metrics, report,
                    invariants.audit_derived_inputs(model.inputs, subject),
                    "derived-inputs")
            reports = []
            for n in AUDIT_SIZES:
                cell_subject = f"{subject} N={n}"
                system = model.system(n)
                _record(metrics, report,
                        invariants.audit_interference(
                            system.interference, n, cell_subject),
                        "interference")
                state, diag = solver.solve(system)
                cell_report = build_report(system, spec.label,
                                           level.label, state, diag)
                _record(metrics, report,
                        invariants.audit_state(system, state,
                                               cell_subject),
                        "fixed-points")
                _record(metrics, report,
                        invariants.audit_report(cell_report,
                                                cell_subject),
                        "fixed-points")
                _record(metrics, report,
                        invariants.audit_diagnostics(
                            diag, solver.tolerance, cell_subject),
                        "fixed-points")
                _record(metrics, report,
                        invariants.audit_capacity_bound(
                            cell_report, model.inputs, cell_subject),
                        "fixed-points")
                reports.append(cell_report)
                mva_tasks.append(CellTask(
                    protocol=spec, sharing_label=level.label,
                    workload=workload, n=n))
            _record(metrics, report,
                    invariants.audit_sweep_shape(reports, subject),
                    "sweep-shape")

    # -- protocol state-machine model checking -------------------------
    depth = 4 if tier == "full" else 3
    for spec in protocols:
        _record(metrics, report,
                invariants.audit_protocol_machine(spec, spec.label,
                                                  depth=depth),
                "protocol-machine")

    # -- differential oracle: scalar vs batch at zero tolerance --------
    _record(metrics, report, differential.diff_scalar_batch(mva_tasks),
            "engine-parity")

    # -- golden corpus -------------------------------------------------
    _record(metrics, report, golden.compare_corpus(golden_path),
            "golden-corpus")

    # -- differential oracle: MVA vs seeded DES ------------------------
    des_cells: list[tuple[int, int]] = [_DES_QUICK]
    if tier == "full":
        des_cells = [(n, _DES_FULL_REQUESTS) for n in _DES_FULL_SIZES]
    reps = _DES_FULL_REPS if sim_engine == "vector" else 1
    workload = appendix_a_workload(SharingLevel.FIVE_PERCENT)
    des_tasks = [CellTask(protocol=spec, sharing_label="5%",
                          workload=workload, n=n, method="sim",
                          sim_requests=requests // reps,
                          sim_seed=DES_SEED + n,
                          sim_engine=sim_engine, sim_reps=reps)
                 for spec in protocols for n, requests in des_cells]
    # On the vector engine the whole corpus (cells x replications) runs
    # as one lockstep pack; each cell's rows are bit-identical to a
    # run of that cell alone, so the audits below see the same numbers.
    des_results: list[SimulationResult | None] = [None] * len(des_tasks)
    if sim_engine == "vector":
        des_results = [result.aggregate() for result in simulate_pack(
            [sim_config(task) for task in des_tasks],
            [task.sim_reps for task in des_tasks])]
    for task, result in zip(des_tasks, des_results):
        _record(metrics, report,
                differential.diff_mva_des(task, result=result),
                "mva-vs-des")

    # -- differential oracle: scalar vs vector DES (full tier) ---------
    if tier == "full":
        for mods in _EQUIVALENCE_MODS:
            spec = next(p for p in protocols
                        if p.mod_numbers == frozenset(mods))
            task = CellTask(protocol=spec, sharing_label="5%",
                            workload=workload, n=4, method="sim",
                            sim_requests=_EQUIVALENCE_REQUESTS,
                            sim_seed=DES_SEED)
            _record(metrics, report,
                    differential.diff_scalar_vector(
                        task, reps=_EQUIVALENCE_REPS),
                    "engine-equivalence")

    # -- stress corners (full tier): failure isolation -----------------
    if tier == "full":
        audit = Audit(subject="stress-corners")
        stress = run_stress()
        audit.check(stress.isolated, "stress-isolation",
                    "a stress sweep must resolve every cell "
                    "independently (converged or isolated error row)",
                    equation="Section 5")
        audit.check(stress.converged + len(stress.failures)
                    == stress.total, "stress-accounting",
                    "every stress cell must be accounted for",
                    observed=float(stress.converged
                                   + len(stress.failures)),
                    expected=f"== {stress.total}")
        _record(metrics, report, audit, "stress-corners")

    report.elapsed_seconds = time.perf_counter() - started
    return report
