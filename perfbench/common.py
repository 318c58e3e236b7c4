"""What every workload shares: its run context, its outcome, and the
per-layer report assembled from the merged span files."""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from pathlib import Path

import layers
import spans


@dataclass
class Context:
    """One benchmark run: where it works and how it was asked to run."""

    root: Path
    workdir: Path
    seed: int
    trace: bool

    @property
    def trace_prefix(self) -> str | None:
        return str(self.workdir / "spans") if self.trace else None

    def load_spans(self) -> list[dict]:
        return spans.load(sorted(self.workdir.glob("spans.*.json")))


@dataclass
class Outcome:
    """End-to-end metrics, per-layer metrics (traced runs only), and
    the failure count of the output checks.

    ``named`` holds the workload's own metrics under their specific
    names (``cold_cells_per_s``, ``p99_ms_r150``, ...) with their units,
    for stderr; ``metrics`` holds the end-to-end metrics every workload
    reports.
    """

    metrics: dict[str, float]
    attempted: int
    failed: int
    named: dict[str, tuple[float, str]] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)


def traced_layers(ctx: Context, wall_s: float, extra: dict[str, float],
                  outside: dict[str, float] | None = None,
                  tags: set[str] | None = None) -> dict[str, float]:
    """Per-layer metrics from the merged spans of every program process.

    ``wall_s`` is the traced wall time the layers' self times must
    account for, together with ``outside`` (seconds per layer measured
    outside the program, such as the load generator's waits); ``extra``
    adds the metrics a workload measures itself.  The self-time split
    per layer goes to stderr for the reader.  With ``tags``, only spans
    carrying one of them count towards the wall time.
    """
    recorded = ctx.load_spans()
    selfs = spans.self_times(recorded)
    by_layer = layers.layer_self_seconds(
        [s for s in recorded if tags is None or s["tag"] in tags], selfs)
    by_layer.update(outside or {})
    attributed = sum(by_layer.values())
    print("layer self time (s):", file=sys.stderr)
    for layer, seconds in sorted(by_layer.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:<10} {seconds:10.4f}", file=sys.stderr)
    print(f"  {'wall':<10} {wall_s:10.4f}  attributed "
          f"{attributed / wall_s:.4f}", file=sys.stderr)
    result = layers.span_metrics(recorded, selfs)
    result.update(dict.fromkeys(layers.WORKLOAD_MEASURED, 0.0))
    result.update(extra)
    result["trace.wall_s"] = wall_s
    result["trace.attributed_share"] = attributed / wall_s
    result["trace.spans"] = len(recorded)
    return result
