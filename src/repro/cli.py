"""Command-line interface: ``python -m repro`` or the ``repro-mva`` script.

Subcommands:

* ``solve``    -- one MVA solution (protocol, sharing, N)
* ``table``    -- regenerate Table 4.1(a|b|c) next to the published rows
* ``figure``   -- ASCII Figure 4.1 (or CSV for external plotting)
* ``simulate`` -- one discrete-event simulation run
* ``compare``  -- MVA vs simulation agreement study (Section 4.2)
* ``protocols``-- list the named protocol family
* ``hierarchy``-- two-level-bus extension (clusters on a global bus)
* ``estimate`` -- measure Appendix-A parameters from a synthetic trace
* ``serve``    -- HTTP JSON evaluation service (cache + process pool)
* ``sweep``    -- resumable sharded sweep through the journal-backed
  queue (worker leases, crash recovery, ``--resume JOB_ID``)
* ``stress``   -- robustness sweep over extreme parameter corners with
  per-cell failure isolation
* ``verify``   -- invariant audits, engine differential oracle and the
  golden-corpus regression diff (quick/full tiers)
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from repro.analysis.comparison import agreement_table, compare_mva_and_simulation
from repro.analysis.experiments import paper_table
from repro.analysis.figures import ascii_chart, figure_41_series, to_csv
from repro.core.model import CacheMVAModel
from repro.protocols.family import PROTOCOLS
from repro.protocols.modifications import ProtocolSpec, parse_mods
from repro.sim.config import SimulationConfig
from repro.sim.system import simulate
from repro.workload.parameters import SharingLevel, appendix_a_workload

#: ``--requests`` help for the DES-running subcommands.  The warm-up is
#: not scaled with ``--requests``: at small request counts it is most of
#: what a run (or each vector-DES replication) simulates.
_REQUESTS_HELP = (
    "measured requests per simulation run (per replication with the "
    "vector engine); each run first simulates a fixed "
    f"{SimulationConfig.warmup_requests:,} unmeasured warm-up requests "
    "(SimulationConfig.warmup_requests), whatever this is")

_SHARING = {
    "1": SharingLevel.ONE_PERCENT,
    "5": SharingLevel.FIVE_PERCENT,
    "20": SharingLevel.TWENTY_PERCENT,
}


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


class _DeprecatedEngine(argparse.Action):
    """``--engine`` of grid/stress/serve: accepted, ignored, and
    announced on stderr (the executor picks the MVA engine)."""

    def __init__(self, option_strings: Sequence[str], dest: str,
                 **kwargs: object) -> None:
        super().__init__(option_strings, dest, choices=["scalar", "batch"],
                         help="deprecated, no effect: the MVA engine is "
                              "picked per sweep (batch for two or more "
                              "cells, scalar for one)", **kwargs)

    def __call__(self, parser: argparse.ArgumentParser,
                 namespace: argparse.Namespace, values: object,
                 option_string: str | None = None) -> None:
        setattr(namespace, self.dest, values)
        print("warning: --engine is deprecated and has no effect; the "
              "MVA engine is picked per sweep", file=sys.stderr)


def _protocol_from_args(args: argparse.Namespace) -> ProtocolSpec:
    if args.protocol:
        name = args.protocol.strip().lower()
        if name in PROTOCOLS:
            return PROTOCOLS[name]
        return parse_mods(args.protocol)
    return parse_mods(args.mods or "")


def _add_protocol_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--protocol", help="named protocol (write-once, "
                        "synapse, illinois, berkeley, rwb, dragon) or a "
                        "modification list like '1,4'")
    parser.add_argument("--mods", help="modification list, e.g. '1,4'")
    parser.add_argument("--sharing", choices=sorted(_SHARING), default="5",
                        help="Appendix-A sharing level in percent")


def _cmd_solve(args: argparse.Namespace) -> int:
    protocol = _protocol_from_args(args)
    workload = appendix_a_workload(_SHARING[args.sharing])
    model = CacheMVAModel(workload, protocol)
    for n in args.n:
        report = model.solve(n)
        print(report.summary())
        if args.verbose:
            r = report.response
            print(f"    R={r.total:.4f} (tau={r.tau} local={r.r_local:.4f} "
                  f"bc={r.r_broadcast:.4f} rr={r.r_remote_read:.4f} "
                  f"supply={r.t_supply})")
            print(f"    w_bus={report.w_bus:.4f} w_mem={report.w_mem:.4f} "
                  f"U_mem={report.u_mem:.4f} Q_bus={report.q_bus:.4f} "
                  f"power={report.processing_power:.4f}")
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    for part in args.part:
        try:
            print(paper_table(part).render())
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    series = figure_41_series()
    if args.csv:
        print(to_csv(series), end="")
    else:
        print(ascii_chart(series, title="Figure 4.1: speedup vs processors"))
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    protocol = _protocol_from_args(args)
    workload = appendix_a_workload(_SHARING[args.sharing])
    if args.engine == "scalar" and args.reps != 1:
        print("error: --reps > 1 requires --engine vector",
              file=sys.stderr)
        return 2
    for n in args.n:
        result = simulate(SimulationConfig(
            n_processors=n, workload=workload, protocol=protocol,
            seed=args.seed, measured_requests=args.requests),
            engine=args.engine, reps=args.reps)
        print(result.summary())
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    protocol = _protocol_from_args(args)
    workload = appendix_a_workload(_SHARING[args.sharing])
    study = compare_mva_and_simulation(
        workload, protocol, args.n, seed=args.seed,
        measured_requests=args.requests)
    print(agreement_table(study).render())
    print(study.summary())
    return 0


def _cmd_hierarchy(args: argparse.Namespace) -> int:
    from repro.hierarchy import HierarchicalMVAModel, HierarchyParams

    protocol = _protocol_from_args(args)
    workload = appendix_a_workload(_SHARING[args.sharing])
    print(f"{'C':>4} {'N':>5} {'speedup':>8} {'U_local':>8} {'U_global':>9}")
    for clusters in args.clusters:
        params = HierarchyParams(
            clusters=clusters, per_cluster=args.per_cluster,
            cluster_locality=args.locality,
            cluster_cache_hit=args.cluster_cache)
        report = HierarchicalMVAModel(workload, params,
                                      protocol=protocol).solve()
        print(f"{clusters:>4} {report.n_processors:>5} "
              f"{report.speedup:>8.3f} {report.u_local_bus:>8.3f} "
              f"{report.u_global_bus:>9.3f}")
    return 0


def _cmd_estimate(args: argparse.Namespace) -> int:
    from repro.core.model import CacheMVAModel as _Model
    from repro.trace import (
        CoherentCacheSystem,
        GeneratorConfig,
        SyntheticTraceGenerator,
        WorkloadEstimator,
    )

    config = GeneratorConfig(n_processors=args.cpus, seed=args.seed)
    generator = SyntheticTraceGenerator(config)
    system = CoherentCacheSystem(args.cpus, args.sets, args.ways)
    estimator = WorkloadEstimator(system, generator.stream_of)
    estimator.observe_trace(generator.trace(args.references))
    report = estimator.estimate()
    print(report.summary())
    protocol = _protocol_from_args(args)
    model = _Model(report.workload, protocol)
    for n in args.n:
        print(f"  -> {protocol.label} N={n}: "
              f"speedup {model.speedup(n):.3f}")
    return 0


def _cmd_crossmodel(args: argparse.Namespace) -> int:
    from repro.analysis.crossmodel import cross_model_table, cross_validate

    protocol = _protocol_from_args(args)
    workload = appendix_a_workload(_SHARING[args.sharing])
    cells = cross_validate(workload, protocol, sizes=tuple(args.n),
                           sim_requests=args.requests)
    print(cross_model_table(cells).render())
    worst = max(cell.spread for cell in cells)
    print(f"max cross-technique spread: {worst:.2%}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    """A compact live reproduction report: tables, agreement, accuracy."""
    from repro.analysis.accuracy import summarize

    print("=" * 72)
    print("Reproduction report: Vernon, Lazowska & Zahorjan (ISCA 1988)")
    print("=" * 72 + "\n")
    for part in ("a", "b", "c"):
        print(paper_table(part).render())
    print("MVA vs detailed simulation (Section 4.2 methodology):\n")
    studies = []
    for mods in [(), (1,), (1, 4)]:
        protocol = ProtocolSpec.of(*mods)
        study = compare_mva_and_simulation(
            appendix_a_workload(SharingLevel.FIVE_PERCENT), protocol,
            sizes=args.n, measured_requests=args.requests)
        studies.append(study)
        print("  " + study.summary())
    print("\nPooled accuracy: " + summarize(studies).text())
    print("\n(paper: <= 2.6-4.25% max error vs its GTPN; MVA "
          "underestimates\nbus utilization and speedup under contention)")
    return 0


def _cmd_grid(args: argparse.Namespace) -> int:
    from repro.analysis.grid import GridSpec, to_csv, to_json
    from repro.service import CellFailedError, ResultCache, SweepExecutor

    try:
        spec = GridSpec(protocols=_grid_protocols(args), sizes=args.n,
                        include_simulation=args.simulate,
                        sim_requests=args.requests,
                        sim_engine=args.sim_engine,
                        sim_reps=args.sim_reps)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # Everything goes through the service executor; the default
    # (jobs=1, no cache) is byte-identical to the historical serial
    # loop.  Per-cell failures become error rows plus a stderr summary;
    # --strict restores the old raise-on-first-error behaviour.
    try:
        cache = ResultCache(path=args.cache) if args.cache else None
        executor = SweepExecutor(jobs=args.jobs, cache=cache,
                                 strict=args.strict)
        result = executor.run_spec(spec)
    except CellFailedError as exc:  # --strict: fail the whole sweep
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # e.g. an unwritable --cache path
        print(f"error: {exc}", file=sys.stderr)
        return 2
    cells = result.cells
    if args.jobs > 1 or args.cache:
        # Sweep summary on stderr so stdout stays a clean CSV/JSON
        # document; the default run stays silent, as it always was.
        print(result.summary.line(), file=sys.stderr)
    failed = result.summary.failed
    if failed:
        for failure in result.failures:
            print(f"failed cell: {failure.describe()}", file=sys.stderr)
        print(f"{failed} of {result.summary.total} cells failed; error "
              "rows exported in place (use --strict to fail fast)",
              file=sys.stderr)
    payload = to_json(cells) if args.json else to_csv(cells)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(payload)
        print(f"wrote {len(cells)} cells to {args.output}")
    else:
        print(payload, end="")
    return 1 if failed == result.summary.total else 0


def _grid_protocols(args: argparse.Namespace) -> list[ProtocolSpec]:
    """The ``grid``/``sweep`` protocol selection (shared flags)."""
    if args.all_combinations:
        from repro.protocols.modifications import all_combinations
        return all_combinations()
    if args.protocols:
        protocols = []
        for text in args.protocols:
            name = text.strip().lower()
            protocols.append(PROTOCOLS[name] if name in PROTOCOLS
                             else parse_mods(text))
        return protocols
    return [ProtocolSpec(), ProtocolSpec.of(1), ProtocolSpec.of(1, 4)]


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.analysis.grid import GridCell, GridSpec, to_csv, to_json
    from repro.service import ResultCache, tasks_for_spec
    from repro.sweepq import SweepQueue, UnknownJobError

    cache_path = args.cache
    if cache_path is None and args.state_dir:
        # A persistent queue needs a persistent result store to resume
        # from; keep it next to the journal unless told otherwise.
        import os
        cache_path = os.path.join(args.state_dir, "cache.db")
    try:
        cache = ResultCache(path=cache_path) if cache_path \
            else ResultCache()
        queue = SweepQueue(state_dir=args.state_dir, cache=cache,
                           chunk_size=args.chunk_size,
                           lease_ttl=args.lease_ttl)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.resume:
            job_id = args.resume
            try:
                tasks = queue.tasks_for(job_id)
            except UnknownJobError:
                print(f"error: unknown sweep job {job_id!r} (known: "
                      f"{[j.job_id for j in queue.journal.list_jobs()]})",
                      file=sys.stderr)
                return 2
        else:
            try:
                spec = GridSpec(protocols=_grid_protocols(args),
                                sizes=args.n,
                                include_simulation=args.simulate,
                                sim_requests=args.requests,
                                sim_seed=args.seed,
                                sim_engine=args.sim_engine,
                                sim_reps=args.sim_reps)
            except ValueError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            tasks = tasks_for_spec(spec)
            job_id = queue.submit(tasks, workers=args.workers)
        outcome = queue.run(job_id, workers=args.workers,
                            chaos_kill=args.chaos_kill)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        queue.close()

    cells = []
    failed = 0
    for task, value in zip(tasks, outcome.values):
        error = value.get("error")
        if error is not None:
            failed += 1
            cells.append(GridCell.failed(
                protocol=task.protocol.label, sharing=task.sharing_label,
                n_processors=task.n, method=task.method,
                error=f"{error.get('type', 'Exception')}: "
                      f"{error.get('message', '')}"))
        else:
            cells.append(GridCell(**value["cell"]))
    counters = outcome.counters
    recovery = (f", {counters['requeues']} requeued"
                if counters["requeues"] else "")
    print(f"sweep job {job_id}: {counters['done']}/{counters['chunks']} "
          f"chunks done ({counters['cells_done']} cells, "
          f"{sum(outcome.cached)} from cache{recovery}); "
          f"{outcome.wall_seconds:.3f}s wall, workers={outcome.workers} "
          f"({outcome.mode}), workers_used={counters['workers_used']}",
          file=sys.stderr)
    if args.state_dir:
        print(f"resume with: repro sweep --state-dir {args.state_dir} "
              f"--resume {job_id}", file=sys.stderr)
    if failed:
        print(f"{failed} of {len(cells)} cells failed; error rows "
              "exported in place", file=sys.stderr)
    payload = to_json(cells) if args.json else to_csv(cells)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(payload)
        print(f"wrote {len(cells)} cells to {args.output}")
    else:
        print(payload, end="")
    return 1 if failed == len(cells) else 0


def _cmd_stress(args: argparse.Namespace) -> int:
    from repro.analysis.stress import run_stress

    report = run_stress(sizes=tuple(args.n), jobs=args.jobs,
                        sim_engine=args.sim_engine, sim_reps=args.sim_reps)
    print(report.text())
    if not report.isolated:  # pragma: no cover - invariant violation
        print("error: a cell failure leaked outside its row",
              file=sys.stderr)
        return 1
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.verify import run_verify, write_corpus
    from repro.verify.golden import DEFAULT_CORPUS_PATH

    golden_path = args.golden or DEFAULT_CORPUS_PATH
    if args.update_golden:
        path = write_corpus(golden_path)
        print(f"golden corpus regenerated at {path}")
        return 0
    report = run_verify(tier=args.tier, golden_path=golden_path,
                        sim_engine=args.sim_engine)
    if args.json:
        print(report.to_json())
    else:
        print(report.text())
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(report.to_json() + "\n")
        print(f"violation report written to {args.output}",
              file=sys.stderr)
    return report.exit_code


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import (
        ModelService,
        ResultCache,
        serve_async,
        start_server,
    )

    coalesce = not args.no_coalesce
    front = "async" if getattr(args, "async") else "threaded"
    try:
        cache = ResultCache(path=args.cache) if args.cache else ResultCache()
        common = dict(cache=cache, jobs=args.jobs,
                      sweep_state_dir=args.sweep_state_dir)
        if coalesce:
            service = ModelService.with_coalescer(
                window_ms=args.coalesce_window_ms,
                max_batch=args.max_batch, **common)
        else:
            service = ModelService(**common)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    settings = (f"jobs={args.jobs}, front={front}, "
                + (f"coalesce={args.coalesce_window_ms}ms/"
                   f"{args.max_batch} cells, " if coalesce
                   else "coalesce=off, ")
                + f"cache={args.cache or 'in-memory'}")

    def announce(url: str) -> None:
        print(f"repro service listening on {url} "
              f"({settings}; Ctrl-C to stop)")

    try:
        if getattr(args, "async"):
            try:
                serve_async(service, host=args.host, port=args.port,
                            announce=announce)
            except KeyboardInterrupt:
                print("\nshutting down")
        else:
            server = start_server(service, host=args.host, port=args.port)
            announce(server.url)
            try:
                server.serve_forever()
            except KeyboardInterrupt:
                print("\nshutting down")
            finally:
                server.server_close()
    except OSError as exc:  # port in use, unresolvable host, ...
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        try:
            service.close()
        except OSError as exc:
            print(f"error: could not persist cache: {exc}", file=sys.stderr)
            return 2
    return 0


def _cmd_protocols(args: argparse.Namespace) -> int:
    for name, spec in PROTOCOLS.items():
        mods = ",".join(str(int(m)) for m in spec) or "none"
        print(f"{name:<12} modifications: {mods}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-mva",
        description="Mean-value analysis of snooping cache-consistency "
                    "protocols (Vernon, Lazowska & Zahorjan, ISCA 1988)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve the MVA model")
    _add_protocol_options(p_solve)
    p_solve.add_argument("-n", type=int, nargs="+", default=[10],
                         help="system sizes")
    p_solve.add_argument("--verbose", action="store_true")
    p_solve.set_defaults(func=_cmd_solve)

    p_table = sub.add_parser("table", help="regenerate Table 4.1")
    p_table.add_argument("part", nargs="*", default=["a", "b", "c"],
                         help="table parts: a, b and/or c (default: all)")
    p_table.set_defaults(func=_cmd_table)

    p_fig = sub.add_parser("figure", help="regenerate Figure 4.1")
    p_fig.add_argument("--csv", action="store_true",
                       help="emit CSV instead of an ASCII chart")
    p_fig.set_defaults(func=_cmd_figure)

    p_sim = sub.add_parser("simulate", help="run the detailed simulator")
    _add_protocol_options(p_sim)
    p_sim.add_argument("-n", type=int, nargs="+", default=[10])
    p_sim.add_argument("--seed", type=int, default=2024)
    p_sim.add_argument("--requests", type=int, default=50_000,
                       help=_REQUESTS_HELP)
    p_sim.add_argument("--engine", choices=["scalar", "vector"],
                       default="scalar",
                       help="DES backend: the scalar reference engine "
                            "(default) or the lockstep multi-replication "
                            "vector engine")
    p_sim.add_argument("--reps", type=_positive_int, default=1,
                       help="replications folded into one aggregate "
                            "(vector engine; --requests is then per "
                            "replication)")
    p_sim.set_defaults(func=_cmd_simulate)

    p_cmp = sub.add_parser("compare", help="MVA vs simulation agreement")
    _add_protocol_options(p_cmp)
    p_cmp.add_argument("-n", type=int, nargs="+", default=[2, 6, 10])
    p_cmp.add_argument("--seed", type=int, default=2024)
    p_cmp.add_argument("--requests", type=int, default=60_000)
    p_cmp.set_defaults(func=_cmd_compare)

    p_list = sub.add_parser("protocols", help="list named protocols")
    p_list.set_defaults(func=_cmd_protocols)

    p_hier = sub.add_parser("hierarchy",
                            help="two-level-bus extension study")
    _add_protocol_options(p_hier)
    p_hier.add_argument("--clusters", type=int, nargs="+",
                        default=[1, 2, 4, 8, 16])
    p_hier.add_argument("--per-cluster", type=int, default=8)
    p_hier.add_argument("--locality", type=float, default=0.9,
                        help="probability sharers are in-cluster")
    p_hier.add_argument("--cluster-cache", type=float, default=0.8,
                        help="cluster-cache hit rate for escaping misses")
    p_hier.set_defaults(func=_cmd_hierarchy)

    p_est = sub.add_parser("estimate",
                           help="measure workload parameters from a "
                                "synthetic trace and solve the MVA")
    _add_protocol_options(p_est)
    p_est.add_argument("--cpus", type=int, default=4)
    p_est.add_argument("--references", type=int, default=100_000)
    p_est.add_argument("--sets", type=int, default=256)
    p_est.add_argument("--ways", type=int, default=4)
    p_est.add_argument("--seed", type=int, default=7)
    p_est.add_argument("-n", type=int, nargs="+", default=[10])
    p_est.set_defaults(func=_cmd_estimate)

    p_grid = sub.add_parser("grid", help="sweep a protocol/size grid and "
                                         "export CSV or JSON")
    p_grid.add_argument("--protocols", nargs="+",
                        help="named protocols or modification lists")
    p_grid.add_argument("--all-combinations", action="store_true",
                        help="sweep all 16 modification combinations")
    p_grid.add_argument("-n", type=int, nargs="+",
                        default=[1, 2, 4, 8, 16, 32])
    p_grid.add_argument("--simulate", action="store_true",
                        help="add detailed-simulation rows per cell")
    p_grid.add_argument("--requests", type=int, default=40_000,
                        help=_REQUESTS_HELP)
    p_grid.add_argument("--json", action="store_true")
    p_grid.add_argument("--output", "-o", help="write to a file")
    p_grid.add_argument("--jobs", type=_positive_int, default=1,
                        help="worker processes for the sweep (default: "
                             "1, serial)")
    p_grid.add_argument("--cache",
                        help="persistent result-cache SQLite file; repeat "
                             "runs reuse previously solved cells")
    p_grid.add_argument("--strict", action="store_true",
                        help="abort the sweep on the first failed cell "
                             "(default: isolate failures as error rows "
                             "and print a summary to stderr)")
    p_grid.add_argument("--engine", action=_DeprecatedEngine)
    p_grid.add_argument("--sim-engine", choices=["scalar", "vector"],
                        default="scalar",
                        help="DES backend for --simulate rows: scalar "
                             "reference runs (default) or lockstep "
                             "multi-replication vector runs")
    p_grid.add_argument("--sim-reps", type=_positive_int, default=1,
                        help="replications per simulation row (vector "
                             "engine; --requests is then per "
                             "replication and sim_ci the across-"
                             "replication band)")
    p_grid.set_defaults(func=_cmd_grid)

    p_sweep = sub.add_parser(
        "sweep",
        help="resumable sharded sweep: journal-backed queue, chunk "
             "leases, batch-engine workers, crash recovery")
    p_sweep.add_argument("--protocols", nargs="+",
                         help="named protocols or modification lists")
    p_sweep.add_argument("--all-combinations", action="store_true",
                         help="sweep all 16 modification combinations")
    p_sweep.add_argument("-n", type=int, nargs="+",
                         default=[1, 2, 4, 8, 16, 32])
    p_sweep.add_argument("--simulate", action="store_true",
                         help="add detailed-simulation rows per cell")
    p_sweep.add_argument("--requests", type=int, default=40_000,
                         help=_REQUESTS_HELP)
    p_sweep.add_argument("--seed", type=int, default=1234,
                         help="simulation seed base")
    p_sweep.add_argument("--sim-engine", choices=["scalar", "vector"],
                         default="scalar",
                         help="DES backend for --simulate rows (see "
                              "'grid --sim-engine')")
    p_sweep.add_argument("--sim-reps", type=_positive_int, default=1,
                         help="replications per simulation row (vector "
                              "engine)")
    p_sweep.add_argument("--workers", type=_positive_int, default=1,
                         help="worker processes leasing chunks")
    p_sweep.add_argument("--chunk-size", type=_positive_int,
                         help="cells per leased chunk (default: "
                              "auto-sized from the grid and workers)")
    p_sweep.add_argument("--lease-ttl", type=float, default=15.0,
                         help="seconds before an unheartbeaten lease is "
                              "requeued to another worker")
    p_sweep.add_argument("--state-dir",
                         help="persistent queue directory (journal + "
                              "cache); required to resume across runs")
    p_sweep.add_argument("--cache",
                         help="result-cache SQLite file (default: "
                              "cache.db inside --state-dir)")
    p_sweep.add_argument("--resume", metavar="JOB_ID",
                         help="resume a journaled job instead of "
                              "submitting a new sweep")
    p_sweep.add_argument("--chaos-kill", type=int, default=0,
                         metavar="N",
                         help="fault injection: SIGKILL the first N "
                              "workers after their first lease (testing)")
    p_sweep.add_argument("--json", action="store_true")
    p_sweep.add_argument("--output", "-o", help="write to a file")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_stress = sub.add_parser("stress",
                              help="robustness sweep: all 16 modification "
                                   "combinations x extreme parameter "
                                   "corners, with per-cell failure "
                                   "isolation")
    p_stress.add_argument("-n", type=int, nargs="+", default=[4, 16, 128],
                          help="system sizes per corner")
    p_stress.add_argument("--jobs", type=_positive_int, default=1,
                          help="worker processes for the sweep")
    p_stress.add_argument("--engine", action=_DeprecatedEngine)
    p_stress.add_argument("--sim-engine", choices=["scalar", "vector"],
                          default=None,
                          help="opt-in DES spot-check: also simulate "
                               "the family-endpoint protocols on every "
                               "corner at sizes <= 16 (default: off)")
    p_stress.add_argument("--sim-reps", type=_positive_int, default=8,
                          help="replications per DES spot-check cell "
                               "(vector engine)")
    p_stress.set_defaults(func=_cmd_stress)

    p_verify = sub.add_parser(
        "verify",
        help="run the verification suite: paper-law invariant audits, "
             "the scalar/batch/DES differential oracle and the "
             "golden-corpus regression diff")
    p_verify.add_argument("--tier", choices=["quick", "full"],
                          default="quick",
                          help="quick: the <60s CI push gate; full: "
                               "deeper model checking, larger DES "
                               "samples, stress corners")
    p_verify.add_argument("--json", action="store_true",
                          help="emit the structured violation report as "
                               "JSON instead of text")
    p_verify.add_argument("--output", "-o",
                          help="also write the JSON violation report to "
                               "a file (CI artifact)")
    p_verify.add_argument("--update-golden", action="store_true",
                          help="regenerate the golden corpus instead of "
                               "verifying; review the diff and commit")
    p_verify.add_argument("--golden",
                          help="golden corpus path (default: the "
                               "committed package file)")
    p_verify.add_argument("--sim-engine",
                          choices=["auto", "scalar", "vector"],
                          default="auto",
                          help="DES backend for the MVA-vs-DES tier: "
                               "auto (scalar for quick, vector for "
                               "full), or force one engine")
    p_verify.set_defaults(func=_cmd_verify)

    p_serve = sub.add_parser("serve",
                             help="run the HTTP JSON evaluation service "
                                  "(POST /v1/solve, POST /v1/grid, "
                                  "GET /v1/healthz, GET /v1/metrics)")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8321,
                         help="TCP port (0 picks an ephemeral port)")
    p_serve.add_argument("--jobs", type=_positive_int, default=1,
                         help="worker processes for grid sweeps")
    p_serve.add_argument("--cache",
                         help="persistent result-cache SQLite file")
    p_serve.add_argument("--engine", action=_DeprecatedEngine)
    p_serve.add_argument("--sweep-state-dir",
                         help="persistent directory for async /v1/sweep "
                              "jobs (journal survives restarts)")
    p_serve.add_argument("--async", action="store_true",
                         help="asyncio front-end: thousands of concurrent "
                              "connections without one thread each "
                              "(default: threaded http.server)")
    p_serve.add_argument("--coalesce-window-ms", type=float, default=2.0,
                         help="how long concurrent /v1/solve cells are "
                              "held before one vectorized batch solve "
                              "(default: 2 ms)")
    p_serve.add_argument("--max-batch", type=_positive_int, default=256,
                         help="queue depth that flushes a coalesced "
                              "batch early (default: 256 cells)")
    p_serve.add_argument("--no-coalesce", action="store_true",
                         help="disable /v1/solve micro-batching (each "
                              "request solves its own cells)")
    p_serve.set_defaults(func=_cmd_serve)

    p_report = sub.add_parser("report", help="compact live reproduction "
                                             "report (tables + agreement)")
    p_report.add_argument("-n", type=int, nargs="+", default=[2, 6, 10])
    p_report.add_argument("--requests", type=int, default=40_000)
    p_report.set_defaults(func=_cmd_report)

    p_cross = sub.add_parser("crossmodel",
                             help="four-technique cross-validation at "
                                  "small N (MVA/DES/Petri chains)")
    _add_protocol_options(p_cross)
    p_cross.add_argument("-n", type=int, nargs="+", default=[1, 2, 3, 4])
    p_cross.add_argument("--requests", type=int, default=30_000)
    p_cross.set_defaults(func=_cmd_crossmodel)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early: not an
        # error.  Point stdout at devnull so the interpreter's shutdown
        # flush does not raise again (no-op where stdout has no real
        # file descriptor, e.g. under pytest capture).
        import io
        import os
        if sys.stdout is sys.__stdout__:  # a real process stdout only
            try:
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, sys.stdout.fileno())
            except (OSError, ValueError, io.UnsupportedOperation):
                pass
        return 0


if __name__ == "__main__":
    sys.exit(main())
