"""Shared-memory result transport: one NumPy array per sweep, zero
per-cell pickles.

Workers and the queue parent share a single memory-mapped file (NumPy
``memmap`` over ``mmap(MAP_SHARED)``): a ``(cells,)`` status byte array
followed by a ``(cells, NFIELDS)`` float64 matrix holding every numeric
quantity of a solved cell -- the ``GridCell`` measures plus the solve
metadata (iterations, damping, attempts, elapsed, effective seed).  A
worker finishing a chunk writes its slice of the matrix in place and
flushes; the only data crossing the journal per chunk is a JSON
*extras* sidecar for the sparse non-numeric leftovers (solver warnings,
retry provenance, error payloads), which are empty for the common case.

``float64`` round-trips through the mapping bit-exactly, so a value
decoded by the parent is byte-identical to the dict the worker
computed -- the transport cannot perturb the determinism guarantee.

The file lives in the queue's state directory (it also survives a
parent crash, though resume correctness rests on the result cache, not
on this transport buffer).
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

import numpy as np

#: Numeric columns of the shared result matrix, in storage order.
FIELDS: tuple[str, ...] = (
    "speedup", "u_bus", "w_bus", "cycle_time", "processing_power",
    "sim_ci", "iterations", "damping", "recovered", "attempts",
    "elapsed_s", "effective_seed",
)
_COL = {name: i for i, name in enumerate(FIELDS)}

#: Per-cell status byte.
EMPTY, OK, ERROR = 0, 1, 2

_NAN = float("nan")


def _status_bytes(n_cells: int) -> int:
    """Status-row size padded to 8 bytes so the matrix stays aligned."""
    return (n_cells + 7) & ~7


class ResultStore:
    """The shared (status, matrix) view over one sweep's result file."""

    def __init__(self, path: str | Path, n_cells: int, create: bool):
        self.path = Path(path)
        self.n_cells = n_cells
        pad = _status_bytes(n_cells)
        total = pad + n_cells * len(FIELDS) * 8
        if create:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(self.path, "wb") as fh:
                fh.truncate(total)
        mode = "r+"
        self._mm = np.memmap(self.path, dtype=np.uint8, mode=mode,
                             shape=(total,))
        self.status = self._mm[:n_cells]
        self.data = self._mm[pad:].view(np.float64).reshape(
            (n_cells, len(FIELDS)))

    @classmethod
    def create(cls, path: str | Path, n_cells: int) -> "ResultStore":
        return cls(path, n_cells, create=True)

    @classmethod
    def attach(cls, path: str | Path, n_cells: int) -> "ResultStore":
        return cls(path, n_cells, create=False)

    def flush(self) -> None:
        self._mm.flush()

    def close(self) -> None:
        # Drop the mapping reference; the buffer is reclaimed with the
        # last view (numpy keeps the mmap alive while slices exist).
        del self.status, self.data
        self._mm = None  # type: ignore[assignment]

    # -- encoding --------------------------------------------------------

    def write(self, index: int, task: Any,
              value: dict[str, Any]) -> dict[str, Any] | None:
        """Encode one worker value; returns the JSON extras (or None).

        Error payloads ride entirely in the extras (they are rare and
        carry strings); solved cells pack every numeric quantity into
        the shared matrix and only spill non-empty warnings / retry
        provenance into the extras.
        """
        if value.get("error") is not None:
            self.status[index] = ERROR
            return value
        cell = value["cell"]
        iterations = value.get("iterations")
        seed = value.get("effective_seed")
        # One assignment per cell: routing every column through the
        # memmap individually costs ~10x more than building the row
        # in Python first (measured on the E13 stress grid).
        self.data[index] = (
            cell["speedup"], cell["u_bus"], cell["w_bus"],
            cell["cycle_time"], cell["processing_power"],
            _NAN if cell.get("sim_ci") is None else cell["sim_ci"],
            _NAN if iterations is None else iterations,
            value.get("damping", _NAN),
            1.0 if value.get("recovered") else 0.0,
            value.get("attempts", 1),
            value.get("elapsed_s", 0.0),
            _NAN if seed is None else seed,
        )
        self.status[index] = OK
        extras: dict[str, Any] = {}
        if value.get("warnings"):
            extras["warnings"] = value["warnings"]
        if value.get("retried_after") is not None:
            extras["retried_after"] = value["retried_after"]
        # Vector-engine provenance rides the sidecar: the numeric
        # matrix layout stays frozen across engines.
        if value.get("sim_engine") not in (None, "scalar"):
            extras["sim_engine"] = value["sim_engine"]
            extras["sim_reps"] = value.get("sim_reps", 1)
        if value.get("sim_pack_cells") is not None:
            extras["sim_pack_cells"] = value["sim_pack_cells"]
        return extras or None

    # -- decoding --------------------------------------------------------

    def read(self, index: int, task: Any,
             extras: dict[str, Any] | None) -> dict[str, Any]:
        """Rebuild the worker's value dict for one cell.

        The result is shaped exactly like the scalar executor's cache
        values (:func:`repro.service.executor.evaluate_task` plus the
        retry wrapper's ``attempts``), so cache entries written from
        the queue are interchangeable with per-cell solves.
        """
        status = int(self.status[index])
        if status == ERROR:
            assert extras is not None, "error cell without extras payload"
            return extras
        if status != OK:
            raise ValueError(f"cell {index} has no result (status {status})")
        # One memmap access per cell (see ``write``): ``tolist`` turns
        # the row into plain Python floats bit-exactly.
        row = self.data[index].tolist()
        extras = extras or {}
        cell: dict[str, Any] = {
            "protocol": task.protocol.label,
            "sharing": task.sharing_label,
            "n_processors": task.n,
            "speedup": row[_COL["speedup"]],
            "u_bus": row[_COL["u_bus"]],
            "w_bus": row[_COL["w_bus"]],
            "cycle_time": row[_COL["cycle_time"]],
            "processing_power": row[_COL["processing_power"]],
            "method": task.method,
            "sim_ci": None,
            "error": None,
        }
        attempts = int(row[_COL["attempts"]])
        elapsed = row[_COL["elapsed_s"]]
        if task.method == "sim":
            ci = row[_COL["sim_ci"]]
            cell["sim_ci"] = None if ci != ci else ci
            value: dict[str, Any] = {
                "cell": cell,
                "iterations": None,
                "effective_seed": int(row[_COL["effective_seed"]]),
                "elapsed_s": elapsed,
                "attempts": attempts,
            }
            if "retried_after" in extras:
                value["retried_after"] = extras["retried_after"]
            if "sim_engine" in extras:
                value["sim_engine"] = extras["sim_engine"]
                value["sim_reps"] = extras.get("sim_reps", 1)
            if "sim_pack_cells" in extras:
                value["sim_pack_cells"] = extras["sim_pack_cells"]
            return value
        return {
            "cell": cell,
            "iterations": int(row[_COL["iterations"]]),
            "damping": row[_COL["damping"]],
            "recovered": bool(row[_COL["recovered"]]),
            "warnings": extras.get("warnings", []),
            "elapsed_s": elapsed,
            "attempts": attempts,
        }
