"""Structured verification outcomes: :class:`Violation` and the report.

Every check in :mod:`repro.verify` reports failures as data, not bare
asserts: a :class:`Violation` names the *law* that was broken (a stable
identifier listed in ``docs/verification.md``), the subject that broke
it, the observed value against the expected bound, and the paper
equation the law comes from.  A :class:`VerifyReport` aggregates the
violations of one verification run together with how many checks were
performed, so "0 violations" is meaningful (it always comes with a
non-zero check count).
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Any


class Severity(enum.Enum):
    """How bad a violation is.

    ``ERROR`` fails the run (exit code 1, CI red); ``WARNING`` is
    surfaced but does not fail -- used for the documented soft spots of
    the approximate MVA (e.g. the bounded monotonicity dips in deep
    saturation, EXPERIMENTS.md E1).
    """

    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True)
class Violation:
    """One broken law, as data.

    ``law`` is the stable identifier from the invariant catalog
    (``docs/verification.md``); ``subject`` names the audited object
    ("write-once 5% N=10 [mva]"); ``observed``/``expected`` record the
    value against the bound it broke; ``equation`` points back at the
    paper ("eq. (7)", "Appendix B"); ``context`` carries any structured
    extras (per-field diffs, tolerances).
    """

    law: str
    subject: str
    message: str
    severity: Severity = Severity.ERROR
    observed: float | None = None
    expected: str | None = None
    equation: str | None = None
    context: dict[str, Any] = field(default_factory=dict)

    def describe(self) -> str:
        """One line for CLI output and logs."""
        parts = [f"[{self.severity.value}] {self.law}: {self.subject}: "
                 f"{self.message}"]
        if self.observed is not None:
            parts.append(f" (observed {self.observed:.6g}"
                         + (f", expected {self.expected}" if self.expected
                            else "") + ")")
        elif self.expected:
            parts.append(f" (expected {self.expected})")
        if self.equation:
            parts.append(f" [{self.equation}]")
        return "".join(parts)

    def as_dict(self) -> dict[str, Any]:
        return {
            "law": self.law,
            "subject": self.subject,
            "message": self.message,
            "severity": self.severity.value,
            "observed": self.observed,
            "expected": self.expected,
            "equation": self.equation,
            "context": self.context,
        }


@dataclass
class VerifyReport:
    """Outcome of one verification run.

    ``checks`` counts every individual law evaluation performed (so an
    all-green report still proves work happened); ``violations`` holds
    what failed.  ``ok`` is the CI-facing verdict: no *error*-severity
    violations (warnings are tolerated and listed).
    """

    tier: str = "quick"
    checks: int = 0
    violations: list[Violation] = field(default_factory=list)
    #: Section label -> number of checks, for the report breakdown.
    sections: dict[str, int] = field(default_factory=dict)
    #: Protocol label -> cache count -> reachable machine configurations.
    reachable_states: dict[str, dict[int, int]] = field(default_factory=dict)
    elapsed_seconds: float = 0.0

    def add(self, violations: list[Violation], checks: int,
            section: str) -> None:
        """Fold one check batch into the report."""
        self.violations.extend(violations)
        self.checks += checks
        self.sections[section] = self.sections.get(section, 0) + checks

    @property
    def errors(self) -> list[Violation]:
        return [v for v in self.violations
                if v.severity is Severity.ERROR]

    @property
    def warnings(self) -> list[Violation]:
        return [v for v in self.violations
                if v.severity is Severity.WARNING]

    @property
    def ok(self) -> bool:
        """No error-severity violations (and some checks actually ran)."""
        return self.checks > 0 and not self.errors

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1

    def text(self) -> str:
        """Human-readable report for the CLI."""
        lines = [f"verify [{self.tier}]: {self.checks} checks, "
                 f"{len(self.errors)} violations, "
                 f"{len(self.warnings)} warnings "
                 f"({self.elapsed_seconds:.2f}s)"]
        for section, count in sorted(self.sections.items()):
            lines.append(f"  {section}: {count} checks")
        for violation in self.violations:
            lines.append(f"  - {violation.describe()}")
        lines.append("verdict: " + ("ok" if self.ok else "FAILED"))
        return "\n".join(lines)

    def as_dict(self) -> dict[str, Any]:
        return {
            "tier": self.tier,
            "ok": self.ok,
            "checks": self.checks,
            "sections": dict(sorted(self.sections.items())),
            "reachable_states": self.reachable_states,
            "violations": [v.as_dict() for v in self.violations],
            "elapsed_seconds": round(self.elapsed_seconds, 6),
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2)
