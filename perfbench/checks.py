"""Output checks: every count of failures feeds ``ok_share``.

Each check returns how many units it examined and how many failed, so
a corrupted row or body is counted rather than aborting the run.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections.abc import Sequence
from typing import Any

#: The MVA-vs-DES speedup band ``repro verify`` uses.
DES_BAND = 0.065
#: Relative tolerance of the committed golden corpus.
GOLDEN_RTOL = 1e-9
#: Measures both the grid CSV and the golden corpus carry.
_GOLDEN_FIELDS = ("speedup", "u_bus", "w_bus", "cycle_time",
                  "processing_power")


def parse_csv(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def check_grid(cold: str, repeats: Sequence[str], expected_rows: int,
               golden: Sequence[dict[str, Any]],
               golden_sizes: Sequence[int]) -> tuple[int, int]:
    """The cold CSV and every repeat (warm and uncached passes) are
    byte-identical, complete and error-free, and the cold rows at
    ``golden_sizes`` match the corpus.

    Returns ``(attempted, failed)`` in rows over all passes.
    """
    reference = parse_csv(cold)
    failed = 0
    for text in (cold, *repeats):
        parsed = parse_csv(text)
        failed += max(expected_rows - len(parsed), 0)
        failed += sum(1 for row in parsed if row.get("error"))
        if text != cold:  # count differing rows: one bad cell, one row
            failed += max(sum(1 for a, b in zip(parsed, reference)
                              if a != b), 1)
    rows = {}
    for row in reference:
        rows[(row["protocol"], row["sharing"], int(row["n_processors"]),
              row["method"])] = row
    for cell in golden:
        if cell["n"] not in golden_sizes:
            continue
        row = rows.get((cell["protocol"], cell["sharing"], cell["n"], "mva"))
        if row is None or not _matches_golden(row, cell):
            failed += 1
    return (1 + len(repeats)) * expected_rows, failed


def _matches_golden(row: dict[str, str], cell: dict[str, Any]) -> bool:
    """The CSV prints 6 significant digits: compare against the corpus
    value rendered the same way, at the corpus tolerance."""
    for field in _GOLDEN_FIELDS:
        try:
            printed = float(row[field])
        except ValueError:
            return False
        if not math.isclose(printed, float(f"{cell[field]:.6g}"),
                            rel_tol=GOLDEN_RTOL, abs_tol=0.0):
            return False
    return True


def check_sweep(text: str, expected_rows: int,
                band: float = DES_BAND) -> tuple[int, int, float]:
    """No error rows, every expected row present, and every DES speedup
    within ``band`` of its MVA row.

    Returns ``(attempted, failed, max relative gap)``.
    """
    parsed = parse_csv(text)
    failed = max(expected_rows - len(parsed), 0)
    failed += sum(1 for row in parsed if row.get("error"))
    mva = {(r["protocol"], r["sharing"], r["n_processors"]): r
           for r in parsed if r["method"] == "mva" and not r["error"]}
    worst = 0.0
    for row in parsed:
        if row["method"] != "sim" or row["error"]:
            continue
        ref = mva.get((row["protocol"], row["sharing"], row["n_processors"]))
        try:
            gap = abs(float(row["speedup"]) / float(ref["speedup"]) - 1.0)
        except (TypeError, ValueError, ZeroDivisionError):
            failed += 1
            continue
        worst = max(worst, gap)
        if not gap <= band:
            failed += 1
    return expected_rows, failed, worst


def comparable_rows(rows: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """Response rows without the per-request ``cached`` flag."""
    return [{k: v for k, v in row.items() if k != "cached"} for row in rows]


def check_solve_body(status: int, body: bytes,
                     reference: list[dict[str, Any]]) -> bool:
    """A ``/v1/solve`` answer is 200, has no failures, and its rows equal
    the reference rows computed in-process."""
    if status != 200:
        return False
    try:
        payload = json.loads(body)
        return (payload["failures"] == []
                and comparable_rows(payload["results"]) == reference)
    except (ValueError, KeyError, TypeError, AttributeError):
        return False
