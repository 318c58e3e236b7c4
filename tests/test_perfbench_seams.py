"""The repository benchmark's traced run still fits the program.

``perfbench/layers.py`` wraps about thirty functions and methods of
``src/`` by name, three of them private seams of the coalescer and the
async front-end (``SolveCoalescer._solve(batch, reason)``,
``SolveCoalescer._set_depth(depth)`` and ``AsyncServiceServer._respond``).
A rename or a changed signature there breaks the benchmark's traced
run, and nothing else would notice.  This test installs the layer table
in a fresh interpreter against ``src/``, serves one coalesced
``/v1/solve`` through the async front-end and checks the spans and
layer metrics the benchmark reads.  It imports the benchmark's modules
and changes none of them.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_SCRIPT = r"""
import json, sys, urllib.request
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import layers, spans
tracer = spans.Tracer()
layers.install(tracer, sys.argv[3])
from repro.service import ModelService, start_async_server
service = ModelService.with_coalescer()
handle = start_async_server(service)
try:
    request = urllib.request.Request(
        handle.url + "/v1/solve",
        data=json.dumps({"protocol": "berkeley", "n": [4, 10]}).encode())
    with urllib.request.urlopen(request, timeout=30) as resp:
        assert resp.status == 200, resp.status
finally:
    handle.shutdown()
    service.close()
print(json.dumps({
    "names": sorted({s["name"] for s in tracer.spans}),
    "flushes": [s.get("attrs") for s in tracer.spans
                if s["name"] == "coalesce.flush"],
    "metrics": layers.span_metrics(tracer.spans,
                                   spans.self_times(tracer.spans)),
}))
"""


def test_traced_run_installs_and_records_the_coalescer_seams(tmp_path):
    result = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(ROOT / "perfbench"),
         str(ROOT / "src"), str(tmp_path / "trace")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout.splitlines()[-1])
    assert report["flushes"] == [{"cells": 2, "reason": "window"}]
    assert {"coalesce.submit_request", "coalesce.wait", "coalesce.flush",
            "coalesce.set_depth", "service.request",
            "service.solve_prepare", "batch.solve_batch"} <= set(
                report["names"])
    metrics = report["metrics"]
    assert metrics["coalesce.queue_depth_max"] == 2
    assert metrics["batch.cells_per_call"] == 2
    assert metrics["service.handle_ms_p50"] > 0
