"""Differential oracle: the three engines must agree on the same cells.

The paper's headline claim is *agreement* -- the cheap MVA numbers track
the expensive detailed model within a few percent everywhere (Tables
4.2/4.3, Section 5).  This module turns that claim into an executable
oracle over our three engines:

* **scalar MVA vs batch MVA** -- same equations, same coefficients, so
  the declared tolerance is *zero*: every exported row field must be
  bit-identical (``==`` on the float, not approximately).  The batch
  engine freezes each lane the sweep it converges and mirrors the
  scalar operand grouping exactly, which is what makes this enforceable.
* **MVA vs DES** -- the Section 4/5 agreement bands from EXPERIMENTS.md:
  speedup within ``MVA_DES_SPEEDUP_BAND`` relative error (the measured
  worst case across all 16 modification combinations is 5.4 %, band
  6.5 %), bus utilization within ``MVA_DES_UBUS_BAND`` absolute.

Disagreements come back as structured
:class:`~repro.verify.violations.Violation` records, never bare asserts.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.model import CacheMVAModel
from repro.service.executor import CellTask, SweepExecutor, sim_config
from repro.sim.config import SimulationConfig
from repro.sim.system import SimulationResult, simulate
from repro.sim.vector import simulate_many
from repro.verify.invariants import Audit, audit_sim_result
from repro.verify.violations import Severity

#: The declared agreement tolerances (documented in
#: docs/verification.md; the MVA-vs-DES bands restate EXPERIMENTS.md
#: and the scalar-vs-vector bands are calibrated in docs/validation.md).
TOLERANCES: dict[str, float] = {
    # Relative error between engines sharing the same equations.
    "scalar-vs-batch": 0.0,
    # |speedup_mva - speedup_des| / speedup_des (worst measured 5.4 %).
    "mva-vs-des-speedup": 0.065,
    # |U_bus_mva - U_bus_des|, absolute (utilizations live in [0, 1]).
    "mva-vs-des-ubus": 0.10,
    # Scalar vs vector DES: the engines draw from different RNG
    # streams, so equivalence is statistical -- across-seed means must
    # agree within a few standard errors (docs/validation.md tabulates
    # the calibration runs behind each band).
    # |mean speedup_scalar - mean speedup_vector| / scalar, relative.
    "scalar-vs-vector-speedup": 0.04,
    # |mean U_bus_scalar - mean U_bus_vector|, absolute.
    "scalar-vs-vector-ubus": 0.04,
    # |mean w_bus_scalar - mean w_bus_vector| / max(scalar, 1), relative
    # to the scalar wait but floored at one cycle (the wait is ~0 off
    # saturation, where a relative band would be meaningless).  Queue
    # waits are the noisiest measure near the knee (worst calibrated
    # divergence 13.3 % across the 16-combo corpus).
    "scalar-vs-vector-wbus": 0.20,
    # |mean interference_scalar - mean interference_vector|, absolute
    # (cache-interference waits are fractions of a cycle).
    "scalar-vs-vector-interference": 0.02,
}

#: Row fields compared between the scalar and batch engines.
_ROW_FIELDS = ("speedup", "u_bus", "w_bus", "cycle_time",
               "processing_power", "error")


def diff_scalar_batch(tasks: Sequence[CellTask],
                      subject: str = "scalar-vs-batch") -> Audit:
    """Run ``tasks`` through both MVA engines; rows must be identical.

    Every cell is evaluated twice -- once per engine, uncached -- and
    the exported :class:`~repro.analysis.grid.GridCell` rows are
    compared field-for-field at zero tolerance.  Cache keys are
    engine-independent in production, so any drift the oracle catches
    here would silently poison shared cache entries; that is why the
    tolerance is zero and not "close enough".
    """
    audit = Audit(subject=subject)
    scalar = SweepExecutor(engine="scalar").run(tasks)
    batch = SweepExecutor(engine="batch").run(tasks)
    for task, s_cell, b_cell in zip(tasks, scalar.cells, batch.cells):
        cell_subject = (f"{task.protocol.label} {task.sharing_label} "
                        f"N={task.n}")
        s_row, b_row = s_cell.as_row(), b_cell.as_row()
        for name in _ROW_FIELDS:
            s_value, b_value = s_row[name], b_row[name]
            audit.check(
                s_value == b_value, "engine-parity",
                f"{cell_subject}: scalar and batch disagree on {name} "
                f"(scalar {s_value!r}, batch {b_value!r})",
                observed=(b_value if isinstance(b_value, float) else None),
                expected=f"== {s_value!r} (zero tolerance)",
                equation="Section 3.2",
                field=name, scalar=s_value, batch=b_value)
    audit.check(len(scalar.cells) == len(batch.cells) == len(tasks),
                "engine-parity",
                "both engines must return one row per task",
                observed=float(len(batch.cells)),
                expected=f"== {len(tasks)}")
    return audit


def diff_mva_des(task: CellTask,
                 speedup_band: float | None = None,
                 ubus_band: float | None = None,
                 result: SimulationResult | None = None) -> Audit:
    """One MVA-vs-DES parity cell (the Tables 4.2/4.3 experiment).

    Solves the cell analytically (scalar engine, recovery enabled) and
    runs the seeded discrete-event simulator on the same workload,
    protocol and architecture, then checks the relative speedup error
    against the declared band.  The DES is the arbiter of record: the
    violation reports the MVA value as observed and the simulated value
    as expected.  ``result`` is the cell's already-simulated (aggregate)
    result, e.g. one cell of a lockstep pack
    (:func:`repro.sim.vector.simulate_pack`); ``None`` simulates here.
    """
    speedup_band = (TOLERANCES["mva-vs-des-speedup"]
                    if speedup_band is None else speedup_band)
    ubus_band = (TOLERANCES["mva-vs-des-ubus"]
                 if ubus_band is None else ubus_band)
    subject = (f"{task.protocol.label} {task.sharing_label} "
               f"N={task.n} [mva-vs-des]")
    audit = Audit(subject=subject)

    model = CacheMVAModel(task.workload, task.protocol, arch=task.arch,
                          solver=task.solver)
    report = model.solve(task.n, recovery=True)
    if result is None:
        # ``sim_engine="vector"`` folds ``sim_reps`` lockstep
        # replications into one aggregate whose CI is the across-seed
        # band -- the multi-seed form of this experiment at the same
        # total sample size.
        result = simulate(sim_config(task), engine=task.sim_engine,
                          reps=task.sim_reps)

    # While the DES output is in hand, hold it to the sim-stats laws
    # too (ranges, the speedup identity, the contention-free floor).
    audit.merge(audit_sim_result(result, tau=task.workload.tau,
                                 t_supply=task.arch.t_supply,
                                 subject=subject))

    audit.check(result.speedup > 0.0, "sim-measured",
                "the simulator must measure a positive speedup",
                observed=result.speedup, expected="> 0")
    if result.speedup > 0.0:
        rel_error = abs(report.speedup - result.speedup) / result.speedup
        audit.check(rel_error <= speedup_band, "mva-des-speedup",
                    f"MVA speedup departs from DES by {rel_error:.2%}, "
                    f"past the {speedup_band:.1%} agreement band",
                    observed=report.speedup,
                    expected=(f"within {speedup_band:.1%} of "
                              f"{result.speedup:.6g}"),
                    equation="Tables 4.2/4.3",
                    rel_error=rel_error, band=speedup_band,
                    seed=task.sim_seed, requests=task.sim_requests,
                    engine=task.sim_engine, reps=task.sim_reps)
    ubus_error = abs(report.u_bus - result.u_bus)
    audit.check(ubus_error <= ubus_band, "mva-des-ubus",
                f"MVA bus utilization departs from DES by "
                f"{ubus_error:.3f}, past the {ubus_band} band",
                observed=report.u_bus,
                expected=f"within {ubus_band} of {result.u_bus:.6g}",
                equation="eq. (7)", severity=Severity.WARNING,
                abs_error=ubus_error, band=ubus_band)
    return audit


def diff_scalar_vector(task: CellTask, reps: int = 8) -> Audit:
    """Statistical-equivalence oracle between the scalar and vector DES.

    Runs the same cell through both simulators over the same ``reps``
    seeds (``task.sim_seed + r``) and compares the across-seed means of
    the measured quantities.  The engines consume *different* uniform
    streams per seed -- the scalar simulator spawns one PCG64 child per
    component while the vector engine serves one buffered stream per
    replication -- so per-seed estimates are independent samples of the
    same law, never bit-equal; the contract is that the across-seed
    means agree within the ``scalar-vs-vector-*`` bands (a few standard
    errors at these sample sizes; docs/validation.md tabulates the
    calibration).  A systematic divergence -- a missed snoop, a
    mis-ordered grant -- shifts a mean by far more than a band and is
    what this oracle exists to catch.
    """
    if reps < 2:
        raise ValueError(f"reps must be >= 2 for a meaningful band, "
                         f"got {reps!r}")
    subject = (f"{task.protocol.label} {task.sharing_label} "
               f"N={task.n} [scalar-vs-vector]")
    audit = Audit(subject=subject)
    seeds = [task.sim_seed + r for r in range(reps)]

    def config(seed: int) -> SimulationConfig:
        return SimulationConfig(
            n_processors=task.n, workload=task.workload,
            protocol=task.protocol, arch=task.arch, seed=seed,
            measured_requests=task.sim_requests)

    scalar = [simulate(config(seed)) for seed in seeds]
    vector = simulate_many(config(seeds[0]), reps=reps, seeds=seeds)

    def mean(values: Sequence[float]) -> float:
        return sum(values) / len(values)

    s_speedup = mean([r.speedup for r in scalar])
    v_speedup = float(vector.speedup.mean())
    band = TOLERANCES["scalar-vs-vector-speedup"]
    rel = abs(s_speedup - v_speedup) / s_speedup
    audit.check(rel <= band, "scalar-vector-speedup",
                f"vector-engine mean speedup departs from scalar by "
                f"{rel:.2%}, past the {band:.1%} equivalence band",
                observed=v_speedup,
                expected=f"within {band:.1%} of {s_speedup:.6g}",
                rel_error=rel, band=band, reps=reps,
                requests=task.sim_requests, seed=task.sim_seed)

    s_ubus = mean([r.u_bus for r in scalar])
    v_ubus = float(vector.u_bus.mean())
    band = TOLERANCES["scalar-vs-vector-ubus"]
    err = abs(s_ubus - v_ubus)
    audit.check(err <= band, "scalar-vector-ubus",
                f"vector-engine mean U_bus departs from scalar by "
                f"{err:.4f}, past the {band} band",
                observed=v_ubus, expected=f"within {band} of {s_ubus:.6g}",
                abs_error=err, band=band, reps=reps)

    s_wbus = mean([r.w_bus for r in scalar])
    v_wbus = float(vector.w_bus.mean())
    band = TOLERANCES["scalar-vs-vector-wbus"]
    rel = abs(s_wbus - v_wbus) / max(s_wbus, 1.0)
    audit.check(rel <= band, "scalar-vector-wbus",
                f"vector-engine mean w_bus departs from scalar by "
                f"{rel:.2%} (of max(w_bus, 1)), past the {band:.0%} band",
                observed=v_wbus,
                expected=f"within {band:.0%} of {s_wbus:.6g}",
                rel_error=rel, band=band, reps=reps)

    s_intf = mean([r.mean_interference_wait for r in scalar])
    v_intf = float(vector.mean_interference_wait.mean())
    band = TOLERANCES["scalar-vs-vector-interference"]
    err = abs(s_intf - v_intf)
    audit.check(err <= band, "scalar-vector-interference",
                f"vector-engine mean cache-interference wait departs "
                f"from scalar by {err:.4f} cycles, past the {band} band",
                observed=v_intf, expected=f"within {band} of {s_intf:.6g}",
                abs_error=err, band=band, reps=reps)

    # Per-replication sanity: every vector row must satisfy the same
    # sim-stats laws the scalar runs do.
    for rep in range(reps):
        row = vector.replication(rep)
        audit.merge(audit_sim_result(
            row, tau=task.workload.tau, t_supply=task.arch.t_supply,
            subject=f"{subject} rep={rep}"))
    return audit
