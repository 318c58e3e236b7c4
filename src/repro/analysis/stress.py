"""Stress harness: every protocol modification combination under
pathological parameter corners, with per-cell failure isolation.

The paper's Section 5 deliberately picks "unrealistic" parameter values
to probe where the MVA approximations break.  This harness turns that
idea into an executable robustness sweep over the failure-tolerant
executor: all 16 modification combinations x a set of extreme workload
corners x several system sizes.  The claim it checks is *not* that
every cell converges -- some corners sit on or past the saturation
knee -- but that every cell either converges (possibly via the damping
ladder) or fails **in isolation**, as a structured error row that
leaves every other cell intact.

Used by the ``repro stress`` CLI subcommand and the failure-isolation
tests; run it after touching the solver or the equations.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.core.solver import FixedPointSolver
from repro.protocols.modifications import ProtocolSpec, all_combinations
from repro.service.executor import (
    CellTask,
    FailedCell,
    SweepExecutor,
    SweepResult,
)
from repro.service.metrics import MetricsRegistry
from repro.workload.parameters import (
    SharingLevel,
    WorkloadParameters,
    appendix_a_workload,
    stress_test_workload,
)

#: Default system sizes: one pre-knee, one around the knee, one deep in
#: saturation.
DEFAULT_SIZES: tuple[int, ...] = (4, 16, 128)


@dataclass(frozen=True)
class StressCorner:
    """One named extreme parameter setting."""

    label: str
    workload: WorkloadParameters


def stress_corners() -> tuple[StressCorner, ...]:
    """The extreme corners swept by :func:`run_stress`.

    Each pushes a different approximation: the Section-5 stress
    parameters (certain cache supply, heavy write sharing), zero think
    time (full saturation), a miss storm (no cache hits at all), and
    the heaviest Appendix-A sharing level as a sane baseline.
    """
    base = appendix_a_workload(SharingLevel.TWENTY_PERCENT)
    return (
        StressCorner("appendix-a-20%", base),
        StressCorner("section-5-stress", stress_test_workload()),
        StressCorner("zero-think-time", base.replace(tau=0.0)),
        StressCorner("miss-storm",
                     base.replace(h_private=0.0, h_sro=0.0, h_sw=0.0)),
    )


def stress_tasks(sizes: Sequence[int] = DEFAULT_SIZES,
                 corners: Sequence[StressCorner] | None = None,
                 protocols: Sequence[ProtocolSpec] | None = None,
                 solver: FixedPointSolver | None = None) -> list[CellTask]:
    """Expand the stress grid into executor tasks (MVA cells only)."""
    if corners is None:
        corners = stress_corners()
    if protocols is None:
        protocols = all_combinations()
    if solver is None:
        solver = FixedPointSolver()
    return [
        CellTask(protocol=protocol, sharing_label=corner.label,
                 workload=corner.workload, n=n, solver=solver)
        for protocol in protocols
        for corner in corners
        for n in sizes
    ]


#: Bounds for the opt-in DES spot-check: simulating the full stress
#: grid would dwarf the MVA sweep, so only tractable sizes are
#: simulated and only the protocol-family endpoints (the base
#: Write-Once protocol and the all-modifications corner).
SIM_SPOT_CHECK_MAX_N = 16
_SIM_SPOT_CHECK_MODS = (frozenset(), frozenset({1, 2, 3, 4}))


def stress_sim_tasks(sizes: Sequence[int] = DEFAULT_SIZES,
                     corners: Sequence[StressCorner] | None = None,
                     sim_engine: str = "vector",
                     sim_reps: int = 8,
                     sim_requests: int = 2_000,
                     sim_seed: int = 1234) -> list[CellTask]:
    """DES spot-check cells riding along the MVA stress grid.

    Every corner keeps the simulator honest on inputs the Appendix-A
    calibration never sees (zero think time, a pure miss storm), but
    the grid is bounded: sizes above ``SIM_SPOT_CHECK_MAX_N`` are
    skipped and only the family-endpoint protocols are simulated, so
    the opt-in check adds seconds, not minutes.
    """
    if corners is None:
        corners = stress_corners()
    reps = sim_reps if sim_engine == "vector" else 1
    return [
        CellTask(protocol=ProtocolSpec.of(*mods), sharing_label=corner.label,
                 workload=corner.workload, n=n, method="sim",
                 sim_requests=sim_requests, sim_seed=sim_seed + n,
                 sim_engine=sim_engine, sim_reps=reps)
        for mods in _SIM_SPOT_CHECK_MODS
        for corner in corners
        for n in sizes
        if n <= SIM_SPOT_CHECK_MAX_N
    ]


@dataclass(frozen=True)
class StressReport:
    """Outcome of one stress sweep."""

    result: SweepResult
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)

    @property
    def total(self) -> int:
        return self.result.summary.total

    @property
    def converged(self) -> int:
        return self.total - len(self.result.failures)

    @property
    def recovered(self) -> int:
        return self.result.summary.recovered

    @property
    def failures(self) -> list[FailedCell]:
        return self.result.failures

    @property
    def saturation_warnings(self) -> int:
        """Cells that converged but sit on the saturation knee."""
        return sum(
            1 for meta in self.result.meta
            if any(w.get("code") == "saturation-knee"
                   for w in meta.get("warnings", ())))

    @property
    def isolated(self) -> bool:
        """True when every cell resolved independently: each task has
        exactly one row, each failure is a structured error row in
        place, and no failure leaked into a neighbouring cell."""
        cells = self.result.cells
        if len(cells) != self.total:
            return False
        failed_indices = {f.index for f in self.failures}
        for index, cell in enumerate(cells):
            if index in failed_indices:
                if cell.error is None or cell.speedup is not None:
                    return False
            elif cell.error is not None or cell.speedup is None:
                return False
        return True

    def text(self) -> str:
        """Human-readable report for the CLI."""
        lines = [
            f"stress sweep: {self.total} cells "
            f"({self.result.summary.line()})",
            f"  converged: {self.converged} "
            f"(of which {self.recovered} via the damping ladder, "
            f"{self.saturation_warnings} on the saturation knee)",
            f"  failed in isolation: {len(self.failures)}",
        ]
        for failure in self.failures:
            lines.append(f"    - {failure.describe()}")
        lines.append("  isolation invariant: "
                     f"{'ok' if self.isolated else 'VIOLATED'}")
        return "\n".join(lines)


def run_stress(sizes: Sequence[int] = DEFAULT_SIZES,
               corners: Sequence[StressCorner] | None = None,
               protocols: Sequence[ProtocolSpec] | None = None,
               solver: FixedPointSolver | None = None,
               jobs: int = 1, sim_engine: str | None = None,
               sim_reps: int = 8) -> StressReport:
    """Sweep the stress grid through a failure-isolating executor.

    The stress grid's MVA cells are solved as one vectorized fixed
    point (the executor's batch engine).  ``sim_engine`` (opt-in,
    default off) appends the bounded DES spot-check of
    :func:`stress_sim_tasks` -- ``"vector"`` runs each spot cell as
    ``sim_reps`` lockstep replications, ``"scalar"`` as one seeded run.
    """
    metrics = MetricsRegistry()
    executor = SweepExecutor(jobs=jobs, metrics=metrics)
    tasks = stress_tasks(sizes=sizes, corners=corners,
                         protocols=protocols, solver=solver)
    if sim_engine is not None:
        tasks.extend(stress_sim_tasks(sizes=sizes, corners=corners,
                                      sim_engine=sim_engine,
                                      sim_reps=sim_reps))
    result = executor.run(tasks)
    return StressReport(result=result, metrics=metrics)
