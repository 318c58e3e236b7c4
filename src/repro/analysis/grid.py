"""Grid runner: sweep (protocol x sharing x N) and persist results.

The interactive-exploration workflow the paper advertises, packaged:
define a grid, run it (MVA always; simulation optionally), and export
the cells as CSV/JSON for external analysis.  Used by the ``grid`` CLI
subcommand and the design-space example.
"""

from __future__ import annotations

import io
import json
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.protocols.modifications import ProtocolSpec
from repro.workload.parameters import (
    ArchitectureParams,
    SharingLevel,
    WorkloadParameters,
    appendix_a_workload,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.service.executor import SweepExecutor


@dataclass(frozen=True)
class GridCell:
    """One grid point: a solved cell, or an error row for a failed one.

    A failed cell (``error`` set) carries ``None`` for every numeric
    measure; it keeps its place in the sweep so exports stay aligned
    and the failure is visible next to its neighbours instead of
    killing the whole sweep.
    """

    protocol: str
    sharing: str
    n_processors: int
    speedup: float | None
    u_bus: float | None
    w_bus: float | None
    cycle_time: float | None
    processing_power: float | None
    method: str = "mva"
    sim_ci: float | None = None
    error: str | None = None

    @classmethod
    def failed(cls, protocol: str, sharing: str, n_processors: int,
               method: str, error: str) -> "GridCell":
        """The error row standing in for a cell that could not solve."""
        return cls(protocol=protocol, sharing=sharing,
                   n_processors=n_processors, speedup=None, u_bus=None,
                   w_bus=None, cycle_time=None, processing_power=None,
                   method=method, error=error)

    def as_row(self) -> dict[str, object]:
        # Hand-rolled (field order preserved): this sits on the sweep
        # hot path and the cells are flat, so the recursive
        # ``dataclasses.asdict`` machinery is measurable overhead.
        return {
            "protocol": self.protocol,
            "sharing": self.sharing,
            "n_processors": self.n_processors,
            "speedup": self.speedup,
            "u_bus": self.u_bus,
            "w_bus": self.w_bus,
            "cycle_time": self.cycle_time,
            "processing_power": self.processing_power,
            "method": self.method,
            "sim_ci": self.sim_ci,
            "error": self.error,
        }


@dataclass(frozen=True)
class GridSpec:
    """What to sweep."""

    protocols: Sequence[ProtocolSpec]
    sizes: Sequence[int]
    sharing_levels: Sequence[SharingLevel] = field(
        default_factory=lambda: list(SharingLevel))
    arch: ArchitectureParams = field(default_factory=ArchitectureParams)
    include_simulation: bool = False
    sim_requests: int = 40_000
    sim_seed: int = 1234
    #: DES backend for simulation rows: ``"scalar"`` (single-seed
    #: reference engine) or ``"vector"`` (``sim_reps`` replications in
    #: lockstep; ``sim_requests`` is then per replication and the row's
    #: ``sim_ci`` is the across-replication band).
    sim_engine: str = "scalar"
    sim_reps: int = 1

    def __post_init__(self) -> None:
        if not self.protocols:
            raise ValueError("at least one protocol required")
        if not self.sizes:
            raise ValueError("at least one system size required")
        if any(n < 1 for n in self.sizes):
            raise ValueError("system sizes must be >= 1")
        if self.sim_engine not in ("scalar", "vector"):
            raise ValueError("sim_engine must be 'scalar' or 'vector', "
                             f"got {self.sim_engine!r}")
        if self.sim_reps < 1:
            raise ValueError(f"sim_reps must be >= 1, got {self.sim_reps!r}")
        if self.sim_engine == "scalar" and self.sim_reps != 1:
            raise ValueError("sim_reps > 1 requires sim_engine='vector'")


def run_grid(spec: GridSpec,
             workload_for: Callable[[SharingLevel], WorkloadParameters] = appendix_a_workload,
             executor: "SweepExecutor | None" = None,
             ) -> list[GridCell]:
    """Solve every grid point; simulation cells follow their MVA cell.

    All evaluation goes through :class:`repro.service.SweepExecutor`;
    the default (no ``executor``) is a serial, uncached run whose cells
    are identical -- values and order -- to the historical in-line
    loop (its MVA cells are one vectorized batch solve, bit-identical
    to solving them one by one).  Pass an executor configured with
    ``jobs``/``cache`` to parallelize the simulation cells or reuse
    previously solved cells.
    """
    from repro.service.executor import SweepExecutor

    if executor is None:
        executor = SweepExecutor(jobs=1)
    return executor.run_spec(spec, workload_for).cells


_CSV_COLUMNS = ("protocol", "sharing", "n_processors", "method", "speedup",
                "u_bus", "w_bus", "cycle_time", "processing_power", "sim_ci",
                "error")


def to_csv(cells: Iterable[GridCell]) -> str:
    """Flat CSV export of a grid run."""
    out = io.StringIO()
    out.write(",".join(_CSV_COLUMNS) + "\n")
    for cell in cells:
        row = cell.as_row()
        values = []
        for column in _CSV_COLUMNS:
            value = row[column]
            if value is None:
                values.append("")
            elif isinstance(value, float):
                values.append(f"{value:.6g}")
            else:
                text = str(value)
                if any(ch in text for ch in ",\"\n"):
                    text = '"' + text.replace('"', '""') + '"'
                values.append(text)
        out.write(",".join(values) + "\n")
    return out.getvalue()


def to_json(cells: Iterable[GridCell]) -> str:
    """JSON-lines-free single-document export."""
    return json.dumps([cell.as_row() for cell in cells], indent=2)


def best_protocol_per_cell(cells: Iterable[GridCell]) -> dict[tuple[str, int], str]:
    """For each (sharing, N), the protocol with the highest MVA speedup."""
    best: dict[tuple[str, int], GridCell] = {}
    for cell in cells:
        if cell.method != "mva" or cell.error is not None:
            continue
        key = (cell.sharing, cell.n_processors)
        if key not in best or cell.speedup > best[key].speedup:
            best[key] = cell
    return {key: cell.protocol for key, cell in best.items()}
