"""repro.verify: invariant checker, differential oracle, golden corpus.

The always-on correctness tooling for the three engines (scalar MVA,
batch MVA, DES): paper-level laws as executable audits
(:mod:`repro.verify.invariants`), cross-engine parity oracles
(:mod:`repro.verify.differential`), frozen regression snapshots
(:mod:`repro.verify.golden`), and the tiered run that drives them all
(:func:`repro.verify.runner.run_verify`) behind ``repro verify`` and
``POST /v1/verify``.
"""

from repro.verify.differential import (
    TOLERANCES,
    diff_mva_des,
    diff_scalar_batch,
    scalar_sweep,
)
from repro.verify.golden import (
    DEFAULT_CORPUS_PATH,
    compare_corpus,
    generate_corpus,
    write_corpus,
)
from repro.verify.invariants import (
    Audit,
    audit_capacity_bound,
    audit_derived_inputs,
    audit_diagnostics,
    audit_interference,
    audit_protocol_machine,
    audit_report,
    audit_sim_result,
    audit_state,
    audit_sweep_shape,
)
from repro.verify.runner import TIERS, run_verify
from repro.verify.violations import Severity, VerifyReport, Violation

__all__ = [
    "TIERS",
    "TOLERANCES",
    "DEFAULT_CORPUS_PATH",
    "Audit",
    "Severity",
    "VerifyReport",
    "Violation",
    "audit_capacity_bound",
    "audit_derived_inputs",
    "audit_diagnostics",
    "audit_interference",
    "audit_protocol_machine",
    "audit_report",
    "audit_sim_result",
    "audit_state",
    "audit_sweep_shape",
    "compare_corpus",
    "diff_mva_des",
    "diff_scalar_batch",
    "generate_corpus",
    "run_verify",
    "scalar_sweep",
    "write_corpus",
]
