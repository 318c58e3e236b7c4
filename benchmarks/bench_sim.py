"""E17: the lockstep vector DES engine vs the scalar simulator.

The scalar discrete-event simulator (``repro.sim.system``) earns its
keep as the semantic reference -- one heap, one event at a time, easy
to audit against the protocol tables -- but every statistical question
(confidence bands, MVA-vs-DES verification, seed sensitivity) wants
*many independent replications*, and the scalar engine pays its full
per-event Python cost for each one.  ``repro.sim.vector`` advances all
replications in lockstep over NumPy structured state, so the per-tick
interpreter overhead amortizes across the replication axis.

Three claims are checked here:

1. **Throughput** -- on the 16-combination validation corpus (every
   modification combination, N=8, 5% sharing) the vector engine
   delivers >= 10x replication throughput versus scalar runs at the
   flagship replication width.  Throughput is replications completed
   per wall-clock second at identical per-replication sample sizes.
2. **Scaling** -- throughput grows with the replication width (the
   whole point of the lockstep layout); the reps axis is swept on the
   base Write-Once combination and reported alongside.
3. **Packing** -- the 12 vector-DES cells of perfbench ``sweep-des``
   (Write-Once and WO+1+2+3+4, three sharing levels, N = 4 and 16, 16
   replications of 2500 measured requests) run as one 192-lane
   lockstep pack against one cell at a time with the same seeds.  The
   rows must be bit-identical, and the median of ``PACK_REPEATS``
   alternating pairs must keep at least ``PACK_FLOOR`` times the
   one-at-a-time throughput.

The scaling and packed legs also record the lockstep tick count and
the wall time per tick: a run costs ticks x (cost of one tick), the
tick count is fixed by the model, so the per-tick cost is what an
engine change can move.

The engines are *statistically* equivalent, not bit-equal (different
uniform streams per seed; ``repro verify --tier full`` owns that
oracle), so this bench records the aggregate speedup gap per combo as
context but only asserts throughput.

Quick mode (``REPRO_BENCH_QUICK=1``, the CI smoke job) shrinks the
corpus, the replication widths and the packed cells and relaxes the
floors -- narrow widths cannot amortize the per-tick dispatch cost, and
CI runners are noisy.

Numbers land in ``output/sim.txt`` (human-readable), ``output/sim.json``
(machine-readable CI artifact) and ``benchmarks/BENCH_sim.json`` (the
committed baseline; see docs/performance.md for the schema).
"""

import dataclasses
import json
import os
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from conftest import once  # noqa: E402

from repro.protocols.modifications import ProtocolSpec, all_combinations
from repro.sim.config import SimulationConfig
from repro.sim.system import SnoopingBusSimulator
from repro.sim.vector import VectorSnoopingBusSimulator, simulate_many
from repro.workload.parameters import SharingLevel, appendix_a_workload

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")

#: The validation corpus: every modification combination at a moderate
#: size and sharing level (the same shape the verify tiers sweep).
N_PROCESSORS = 8
WARMUP = 1_000
MEASURED = 5_000
SEED = 1234

#: Replication widths for the scaling sweep (base combination only).
REPS_SWEEP = (8, 32) if QUICK else (32, 64, 128, 256, 512)

#: Width used for the 16-combination corpus measurement and the
#: acceptance floor applied to its aggregate throughput ratio.
REPS_FLAGSHIP = 32 if QUICK else 512
SPEEDUP_FLOOR = 1.0 if QUICK else 10.0

_CORPUS = all_combinations()
if QUICK:
    _CORPUS = _CORPUS[:4]

#: The packed leg: perfbench ``sweep-des``'s DES cells at its seed 1
#: (``repro sweep --seed 1`` gives a cell at size N the seed 1 + N).
PACK_MODS = ((), (1, 2, 3, 4))
PACK_SIZES = (4,) if QUICK else (4, 16)
PACK_LEVELS = ((SharingLevel.FIVE_PERCENT,) if QUICK
               else tuple(SharingLevel))
PACK_REPS = 4 if QUICK else 16
PACK_MEASURED = 500 if QUICK else 2_500
PACK_SEED_BASE = 1
#: Alternating (packed, one-at-a-time) pairs; the gate is their median.
PACK_REPEATS = 1 if QUICK else 5
#: Floor on packed / one-at-a-time throughput.  Two full-mode runs of
#: five pairs each on a 2-vCPU host measured 4.65x-6.49x per pair; the
#: floor sits below the worst single pair.
PACK_FLOOR = 1.0 if QUICK else 4.0


def _config(spec, seed=SEED):
    return SimulationConfig(
        n_processors=N_PROCESSORS,
        workload=appendix_a_workload(SharingLevel.FIVE_PERCENT),
        protocol=spec, seed=seed,
        warmup_requests=WARMUP, measured_requests=MEASURED)


def _timed(fn):
    started = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - started


def _run_ticks(simulator):
    """Run a lockstep simulator; returns ``(results, ticks)``."""
    return simulator.run(), simulator.ticks


def _merge_json(path: Path, record: dict) -> None:
    existing = {}
    if path.exists():
        try:
            existing = json.loads(path.read_text())
        except ValueError:
            existing = {}
    existing.update(record)
    path.write_text(json.dumps(existing, indent=2, sort_keys=True) + "\n")


def _write_json(output_dir: Path, record: dict) -> None:
    _merge_json(output_dir / "sim.json", record)
    _merge_json(Path(__file__).resolve().parent / "BENCH_sim.json",
                dict(record, schema=1, quick=QUICK,
                     cores=os.cpu_count() or 1))


def test_reps_scaling(benchmark, emit, output_dir):
    """Throughput must grow with the replication width (base combo)."""
    spec = _CORPUS[0]

    def run_sweep():
        _, scalar_s = _timed(lambda: SnoopingBusSimulator(_config(spec)).run())
        rows = []
        for reps in REPS_SWEEP:
            (_, ticks), vector_s = _timed(lambda: _run_ticks(
                VectorSnoopingBusSimulator(_config(spec), reps)))
            rows.append((reps, vector_s, ticks))
        return scalar_s, rows

    scalar_s, rows = once(benchmark, run_sweep)
    lines = [f"E17 replication scaling ({spec.label} N={N_PROCESSORS}, "
             f"{MEASURED} measured requests/replication"
             f"{', quick mode' if QUICK else ''}):",
             f"  scalar   : {scalar_s * 1e3:8.1f} ms/replication"]
    record = {"protocol": spec.label, "n_processors": N_PROCESSORS,
              "warmup_requests": WARMUP, "measured_requests": MEASURED,
              "scalar_s_per_rep": scalar_s, "quick": QUICK, "widths": {}}
    ratios = {}
    for reps, vector_s, ticks in rows:
        per_rep = vector_s / reps
        ratios[reps] = scalar_s / per_rep
        lines.append(f"  reps={reps:4d}: {vector_s * 1e3:8.1f} ms total, "
                     f"{per_rep * 1e3:7.2f} ms/replication "
                     f"({ratios[reps]:5.2f}x scalar), {ticks} ticks at "
                     f"{vector_s / ticks * 1e6:6.1f} us/tick")
        record["widths"][str(reps)] = {
            "total_s": vector_s, "s_per_rep": per_rep,
            "throughput_x": ratios[reps], "ticks": ticks,
            "us_per_tick": vector_s / ticks * 1e6}
    emit("sim.txt", "\n".join(lines) + "\n")
    _write_json(output_dir, {"scaling": record})
    widths = sorted(ratios)
    assert ratios[widths[-1]] >= ratios[widths[0]], (
        "vector throughput must not shrink as the replication width "
        f"grows (got {ratios})")


def test_corpus_throughput(benchmark, emit, output_dir):
    """>= 10x replication throughput on the validation corpus."""

    def run_corpus():
        combos = []
        for spec in _CORPUS:
            scalar_result, scalar_s = _timed(
                lambda s=spec: SnoopingBusSimulator(_config(s)).run())
            vector_result, vector_s = _timed(
                lambda s=spec: simulate_many(_config(s),
                                             reps=REPS_FLAGSHIP))
            agg = vector_result.aggregate()
            gap = (abs(agg.speedup - scalar_result.speedup)
                   / scalar_result.speedup)
            combos.append((spec.label, scalar_s, vector_s, gap))
        return combos

    combos = once(benchmark, run_corpus)
    scalar_total = sum(s for _, s, _, _ in combos)
    vector_total = sum(v for _, _, v, _ in combos)
    # Replications per second on each side, identical per-replication
    # sample: the corpus-aggregate throughput ratio.
    ratio = (len(combos) * REPS_FLAGSHIP / vector_total) \
        / (len(combos) / scalar_total)
    lines = [f"E17 validation corpus ({len(combos)} combinations, "
             f"N={N_PROCESSORS}, reps={REPS_FLAGSHIP}"
             f"{', quick mode' if QUICK else ''}):"]
    record = {"n_processors": N_PROCESSORS, "reps": REPS_FLAGSHIP,
              "warmup_requests": WARMUP, "measured_requests": MEASURED,
              "speedup_floor": SPEEDUP_FLOOR, "quick": QUICK,
              "combos": {}}
    worst_gap = 0.0
    for label, scalar_s, vector_s, gap in combos:
        per_rep = vector_s / REPS_FLAGSHIP
        lines.append(f"  {label:14s}: scalar {scalar_s * 1e3:7.1f} ms/rep, "
                     f"vector {per_rep * 1e3:6.2f} ms/rep "
                     f"({scalar_s / per_rep:5.2f}x), "
                     f"aggregate-speedup gap {gap:.2%}")
        record["combos"][label] = {
            "scalar_s_per_rep": scalar_s, "vector_s_total": vector_s,
            "vector_s_per_rep": per_rep,
            "throughput_x": scalar_s / per_rep,
            "aggregate_speedup_gap": gap}
        worst_gap = max(worst_gap, gap)
    lines.append(f"  corpus throughput ratio: {ratio:.2f}x "
                 f"(floor {SPEEDUP_FLOOR}x); "
                 f"worst aggregate-speedup gap {worst_gap:.2%}")
    record["throughput_x"] = ratio
    record["worst_aggregate_speedup_gap"] = worst_gap
    emit("sim.txt", "\n".join(lines) + "\n")
    _write_json(output_dir, {"corpus": record})
    assert ratio >= SPEEDUP_FLOOR, (
        f"vector engine {ratio:.2f}x over scalar on the validation "
        f"corpus, below the {SPEEDUP_FLOOR}x floor")


def _pack_configs():
    return [SimulationConfig(
        n_processors=n, workload=appendix_a_workload(level),
        protocol=ProtocolSpec.of(*mods), seed=PACK_SEED_BASE + n,
        measured_requests=PACK_MEASURED)
        for mods in PACK_MODS for level in PACK_LEVELS for n in PACK_SIZES]


def _rows(result):
    """One cell's replication rows plus its aggregate, as plain data."""
    return ([dataclasses.asdict(result.replication(r))
             for r in range(result.n_replications)]
            + [dataclasses.asdict(result.aggregate())])


def test_packed_sweep_cells(benchmark, emit, output_dir):
    """A 192-lane pack beats the same cells one at a time, same rows."""
    configs = _pack_configs()
    reps = [PACK_REPS] * len(configs)
    ticks = 0

    def run_pairs():
        nonlocal ticks
        pairs = []
        for _ in range(PACK_REPEATS):
            (packed, ticks), packed_s = _timed(lambda: _run_ticks(
                VectorSnoopingBusSimulator.pack(configs, reps)))
            alone, alone_s = _timed(lambda: [
                simulate_many(config, reps=PACK_REPS)
                for config in configs])
            assert [_rows(r) for r in packed] == [_rows(r) for r in alone], (
                "a packed cell's rows differ from the cell run alone")
            pairs.append((packed_s, alone_s))
        return pairs

    pairs = once(benchmark, run_pairs)
    ratios = sorted(alone_s / packed_s for packed_s, alone_s in pairs)
    tick_us = sorted(packed_s / ticks * 1e6 for packed_s, _ in pairs)
    lanes = len(configs) * PACK_REPS
    requests = lanes * PACK_MEASURED
    lines = [f"E17 packed sweep-des cells ({len(configs)} cells x "
             f"{PACK_REPS} reps = {lanes} lanes, {PACK_MEASURED} measured "
             f"requests/replication{', quick mode' if QUICK else ''}):"]
    for packed_s, alone_s in pairs:
        lines.append(f"  packed {packed_s:6.2f} s ({requests / packed_s:8.0f}"
                     f" req/s), one at a time {alone_s:6.2f} s "
                     f"({requests / alone_s:8.0f} req/s): "
                     f"{alone_s / packed_s:4.2f}x")
    lines.append(f"  throughput ratio over {len(pairs)} pairs: worst "
                 f"{ratios[0]:.2f}x, median "
                 f"{statistics.median(ratios):.2f}x, best {ratios[-1]:.2f}x "
                 f"(median floor {PACK_FLOOR}x); rows bit-identical")
    lines.append(f"  packed run: {ticks} ticks, median "
                 f"{statistics.median(tick_us):.1f} us/tick "
                 f"({tick_us[0]:.1f}-{tick_us[-1]:.1f})")
    emit("sim.txt", "\n".join(lines) + "\n")
    _write_json(output_dir, {"packed": {
        "cells": len(configs), "reps": PACK_REPS, "lanes": lanes,
        "measured_requests": PACK_MEASURED, "quick": QUICK,
        "pairs": [{"packed_s": p, "one_at_a_time_s": a}
                  for p, a in pairs],
        "throughput_x": {"min": ratios[0],
                         "median": statistics.median(ratios),
                         "max": ratios[-1]},
        "floor": PACK_FLOOR, "rows_identical": True, "ticks": ticks,
        "us_per_tick": {"min": tick_us[0],
                        "median": statistics.median(tick_us),
                        "max": tick_us[-1]}}})
    median = statistics.median(ratios)
    assert median >= PACK_FLOOR, (
        f"packed run {median:.2f}x the one-at-a-time throughput "
        f"(median of {len(ratios)} pairs), below the {PACK_FLOOR}x floor")
