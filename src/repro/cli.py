"""Command-line interface.

Installed as the ``repro`` console script (also reachable as
``python -m repro``).  Sub-commands cover the everyday workflow:

``generate-trace``
    Write a synthetic Porto-like day of trips as a Porto-format CSV.
``build-market``
    Generate trips + drivers, price them, and save the market instance as JSON.
``solve``
    Load a market JSON and solve it with one of the algorithms (greedy,
    maxMargin, nearest, batched, exact), optionally saving the solution.
    ``--stream`` consumes the orders as a live publish-ordered stream, and
    ``--executor process --grid 2x2`` fans the stream out to per-shard
    streaming sessions on a persistent worker pool.  ``--horizon``/
    ``--overlap``/``--forecast`` turn the batched dispatcher into the
    rolling-horizon one (lookahead pricing + proactive repositioning).
``bound``
    Compute an upper bound (LP relaxation, Lagrangian or exact) for a market.
``info``
    Print the structural summary of a market (sizes, arcs, diameter).
``experiment``
    Re-run the paper's experiments (fig3-4, fig5, fig6-9, ablations or all).
``scenario``
    The declarative workload engine: ``scenario list`` names the built-in
    city days, ``scenario run`` compiles one and runs it offline or as a
    live sharded stream, ``scenario compare`` sweeps scenarios x dispatch
    modes on one warm worker pool and prints the metrics comparison.
``serve``
    Run the long-lived asyncio dispatch service against a synthetic
    multi-city order flood (a soak): orders stream through the ingestion
    gateway, epochs rotate on warm pools, and p50/p99 end-to-end dispatch
    latency plus the parity-15 verdict are printed (and optionally written
    as JSON).  Ctrl-C tears the service down cleanly — streams closed,
    worker pools shut down — and exits 130.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .analysis import BoundKind, compute_upper_bound, format_metric_dict
from .distributed import EXECUTOR_POLICIES, SOLVER_NAMES, TRANSPORTS, PersistentWorkerPool
from .experiments import (
    DEFAULT_SCALE,
    PAPER_SCALE,
    TINY_SCALE,
    ExperimentConfig,
    run_distribution_experiment,
    run_everything,
    run_fig5,
    run_market_insight_sweep,
    run_partition_ablation,
    run_surge_ablation,
)
from .io import SerializationError, load_instance, save_instance, save_solution
from .market import graph_summary, market_from_trace
from .offline import ExactSolverError, exact_optimum, greedy_assignment
from .online import BatchedSimulator, MaxMarginDispatcher, NearestDispatcher, OnlineSimulator
from .pricing import FareSchedule, LinearPricing
from .trace import WorkingModel, generate_drivers, generate_trace, write_porto_csv

_SCALES = {"tiny": TINY_SCALE, "default": DEFAULT_SCALE, "paper": PAPER_SCALE}
_BOUNDS = {
    "lp": BoundKind.LP_RELAXATION,
    "lagrangian": BoundKind.LAGRANGIAN,
    "exact": BoundKind.EXACT,
}


def _add_trace_arg(parser: argparse.ArgumentParser) -> None:
    """The flight-recorder flag shared by solve / scenario run / serve."""
    parser.add_argument(
        "--trace-out", metavar="PATH",
        help="record a span trace of the whole run (coordinator and worker "
        "side) and write it as Chrome trace-event JSON — load it at "
        "https://ui.perfetto.dev or chrome://tracing",
    )


def _add_horizon_args(parser: argparse.ArgumentParser) -> None:
    """The rolling-horizon dispatch knobs shared by the streaming commands."""
    parser.add_argument(
        "--horizon", type=int, default=1,
        help="rolling-horizon control window in dispatch windows (1 = myopic; "
        ">1 biases each window's assignment toward forecast future demand "
        "and proactively repositions idle drivers)",
    )
    parser.add_argument(
        "--overlap", type=int, default=0,
        help="coarse overlap horizon beyond the control window, in blocks of "
        "windows; solved in expectation, never committed",
    )
    parser.add_argument(
        "--forecast", choices=["ewma", "oracle"], default="ewma",
        help="per-zone demand forecaster feeding the lookahead ('oracle' "
        "reads the compiled timeline and only works on replayed — not "
        "live-streamed — runs)",
    )


def _add_executor_arg(parser: argparse.ArgumentParser, help: str) -> None:
    parser.add_argument(
        "--executor", choices=sorted(EXECUTOR_POLICIES), default="serial", help=help
    )


def _add_grid_arg(parser: argparse.ArgumentParser, default: str, help: str) -> None:
    parser.add_argument("--grid", default=default, metavar="RxC", help=help)


def _add_transport_arg(parser: argparse.ArgumentParser, help: str) -> None:
    parser.add_argument("--transport", choices=sorted(TRANSPORTS), default="pickle", help=help)


def _add_gap_threshold_arg(parser: argparse.ArgumentParser, help: str) -> None:
    parser.add_argument("--gap-threshold", type=float, default=0.02, help=help)


def _add_stream_arg(parser: argparse.ArgumentParser, default: bool, help: str) -> None:
    parser.add_argument(
        "--stream", action=argparse.BooleanOptionalAction, default=default, help=help
    )


_HORIZON_DEFAULTS = {"horizon": 1, "overlap": 0, "forecast": "ewma"}

#: Flags only some modes of a command read: ``(command, flag defaults,
#: does this mode read them, message)``.  A flag off its default in a mode
#: that never reads it is rejected before the command runs, so no option is
#: silently ignored.
_MODE_ONLY_FLAGS = (
    ("solve", {"stream": False}, lambda a: a.algorithm == "batched",
     "--stream requires --algorithm batched"),
    ("solve", _HORIZON_DEFAULTS, lambda a: a.algorithm == "batched",
     "--horizon/--overlap/--forecast require --algorithm batched"),
    ("solve", {"executor": "serial", "grid": "1x1", "transport": "pickle"},
     lambda a: a.stream, "--executor, --grid and --transport only apply to --stream solves"),
    ("solve", {"batch_window": 60.0}, lambda a: a.algorithm == "batched",
     "--batch-window requires --algorithm batched"),
    ("solve", {"gap_threshold": 0.02}, lambda a: a.algorithm in ("lp", "auto"),
     "--gap-threshold requires --algorithm lp or auto"),
    ("experiment", {"scenarios": None}, lambda a: a.figure == "all",
     "--scenarios requires --figure all"),
    ("experiment", {"executor": "serial", "stream": False},
     lambda a: a.figure in ("all", "ablations"),
     "--executor and --stream require --figure all or ablations"),
    ("scenario run", _HORIZON_DEFAULTS, lambda a: a.mode == "stream",
     "--horizon/--overlap/--forecast require --mode stream"),
    ("scenario run", {"solver": "greedy"}, lambda a: a.mode == "offline",
     "--solver requires --mode offline"),
    ("scenario run", {"gap_threshold": 0.02}, lambda a: a.mode == "offline",
     "--gap-threshold requires --mode offline"),
    ("scenario compare", _HORIZON_DEFAULTS, lambda a: a.stream,
     "--horizon/--overlap/--forecast require --stream"),
)


def _reject_unread_flags(args: argparse.Namespace) -> None:
    """Exit with the first :data:`_MODE_ONLY_FLAGS` rule ``args`` breaks."""
    command = " ".join(filter(None, (args.command, getattr(args, "scenario_command", None))))
    for rule_command, defaults, reads, message in _MODE_ONLY_FLAGS:
        if rule_command != command or reads(args):
            continue
        if any(getattr(args, dest) != default for dest, default in defaults.items()):
            raise SystemExit(message)


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Optimization framework for online ride-sharing markets (ICDCS 2017 reproduction)",
    )
    parser.add_argument(
        "--log-level",
        metavar="LEVEL",
        help="enable structured logging on the 'repro' logger tree at this "
        "level (DEBUG/INFO/WARNING/...); worker-process records are relayed "
        "to the parent.  Defaults to the REPRO_LOG environment variable",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    trace = subparsers.add_parser("generate-trace", help="write a synthetic day of trips as CSV")
    trace.add_argument("--trips", type=int, default=1000, help="number of trips to generate")
    trace.add_argument("--seed", type=int, default=2017)
    trace.add_argument("--output", required=True, help="output CSV path (Porto format)")

    market = subparsers.add_parser("build-market", help="build and save a market instance")
    market.add_argument("--trips", type=int, default=250)
    market.add_argument("--drivers", type=int, default=50)
    market.add_argument("--seed", type=int, default=2017)
    market.add_argument(
        "--working-model",
        choices=[m.value for m in WorkingModel],
        default=WorkingModel.HITCHHIKING.value,
    )
    market.add_argument("--surge", type=float, default=1.2, help="static surge multiplier")
    market.add_argument("--output", required=True, help="output JSON path")

    solve = subparsers.add_parser("solve", help="solve a saved market instance")
    solve.add_argument("--market", required=True, help="market JSON produced by build-market")
    solve.add_argument(
        "--algorithm",
        choices=["greedy", "maxMargin", "nearest", "batched", "exact", "lp", "auto"],
        default="greedy",
    )
    solve.add_argument("--batch-window", type=float, default=60.0, help="batched: window in seconds")
    _add_horizon_args(solve)
    _add_gap_threshold_arg(
        solve,
        "lp/auto: relative optimality-gap threshold below which 'auto' "
        "keeps the greedy solution instead of solving the LP",
    )
    _add_stream_arg(
        solve, False,
        "batched only: consume the orders as a live publish-ordered stream "
        "(incremental per-shard streaming instances; bit-identical to the "
        "offline replay on a 1x1 grid)",
    )
    _add_executor_arg(
        solve,
        "streaming fan-out policy: 'serial' replays in-process, "
        "'process' routes shard deltas to a persistent worker pool "
        "(merged results are executor-independent)",
    )
    _add_grid_arg(
        solve, "1x1",
        "streaming shard grid over the market's bounding box, e.g. 2x2 "
        "(finer grids parallelise further but lose cross-shard trips)",
    )
    _add_transport_arg(
        solve,
        "streaming wire format: 'shm' ships shard arrays through "
        "shared memory on the process executor (results are "
        "transport-independent)",
    )
    solve.add_argument("--output", help="optional path to save the solution JSON")
    _add_trace_arg(solve)

    bound = subparsers.add_parser("bound", help="compute an upper bound for a market")
    bound.add_argument("--market", required=True)
    bound.add_argument("--kind", choices=sorted(_BOUNDS), default="lp")

    info = subparsers.add_parser("info", help="print the structural summary of a market")
    info.add_argument("--market", required=True)

    experiment = subparsers.add_parser("experiment", help="re-run the paper's experiments")
    experiment.add_argument(
        "--figure",
        choices=["fig3-4", "fig5", "fig6-9", "ablations", "all"],
        default="all",
    )
    experiment.add_argument("--scale", choices=sorted(_SCALES), default="default")
    _add_executor_arg(
        experiment,
        "distributed fan-out for the partitioning ablation "
        "('process' uses every core; merged solutions are executor-independent)",
    )
    _add_stream_arg(
        experiment, False,
        "run the partitioning ablation as a live order stream on the "
        "persistent shard pool instead of offline greedy re-solves",
    )
    experiment.add_argument(
        "--scenarios",
        metavar="NAMES",
        help="--figure all only: append a scenario-suite comparison over the "
        "comma-separated built-in scenarios ('all' for the whole library), "
        "sharing the run's warm worker pool",
    )

    scenario = subparsers.add_parser(
        "scenario", help="declarative city workloads (list / run / compare)"
    )
    scenario_sub = scenario.add_subparsers(dest="scenario_command", required=True)

    scenario_sub.add_parser("list", help="name and describe the built-in scenarios")

    scenario_run = scenario_sub.add_parser(
        "run", help="compile one scenario and run it end to end"
    )
    scenario_run.add_argument("--name", required=True, help="a built-in scenario name")
    scenario_run.add_argument(
        "--mode",
        choices=["offline", "stream"],
        default="stream",
        help="offline sharded solve() or live sharded solve_stream()",
    )
    scenario_run.add_argument(
        "--solver",
        choices=SOLVER_NAMES,
        default="greedy",
        help="offline mode only: the shard solver ('lp'/'auto' run the exact "
        "tier and report per-scenario optimality gaps)",
    )
    _add_gap_threshold_arg(
        scenario_run,
        "lp/auto solvers: relative gap below which 'auto' keeps greedy on a shard",
    )
    scenario_run.add_argument("--trips", type=int, help="rescale the scenario's demand volume")
    scenario_run.add_argument("--drivers", type=int, help="rescale the scenario's fleet")
    scenario_run.add_argument("--seed", type=int, help="override the scenario's seed")
    _add_executor_arg(
        scenario_run, "shard fan-out policy (results are executor-independent)"
    )
    _add_grid_arg(scenario_run, "2x2", "shard grid over the scenario's service region")
    _add_horizon_args(scenario_run)
    _add_trace_arg(scenario_run)

    scenario_compare = scenario_sub.add_parser(
        "compare", help="sweep scenarios x dispatch modes on one warm pool"
    )
    scenario_compare.add_argument(
        "--names",
        help="comma-separated scenario names (default: every built-in scenario)",
    )
    scenario_compare.add_argument(
        "--solvers", default="greedy",
        help="comma-separated offline shard solvers (empty string to skip offline)",
    )
    _add_stream_arg(scenario_compare, True, "include the streamed batched-Hungarian mode")
    scenario_compare.add_argument("--trips", type=int, help="rescale every scenario's demand")
    scenario_compare.add_argument("--drivers", type=int, help="rescale every scenario's fleet")
    _add_executor_arg(scenario_compare, "worker-pool policy the whole sweep shares")
    _add_grid_arg(scenario_compare, "2x2", "shard grid over each scenario's service region")
    scenario_compare.add_argument(
        "--bounds",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="run the exact tier once per scenario and stamp optimality-gap "
        "columns (greedy/lp revenue, Lagrangian bound) onto every row",
    )
    _add_gap_threshold_arg(
        scenario_compare,
        "relative gap below which the 'auto' solver keeps greedy on a shard",
    )
    _add_horizon_args(scenario_compare)

    serve = subparsers.add_parser(
        "serve",
        help="run the asyncio dispatch service against a synthetic order soak",
    )
    serve.add_argument(
        "--orders", type=int, default=20_000,
        help="total orders across all cities and epochs",
    )
    serve.add_argument("--cities", type=int, default=2, help="tenant city count")
    serve.add_argument(
        "--epochs", type=int, default=2,
        help="stream rotations per city (bounds per-stream task-network size)",
    )
    serve.add_argument("--drivers", type=int, default=24, help="fleet size per city")
    _add_executor_arg(serve, "per-city worker-pool policy")
    serve.add_argument(
        "--workers", type=int, default=None, help="pool width per city (pooled policies)"
    )
    _add_transport_arg(
        serve,
        "per-city pool wire format ('shm' = zero-copy shared memory on "
        "the process executor; outcomes are transport-independent)",
    )
    _add_grid_arg(serve, "2x2", "shard grid per city")
    serve.add_argument(
        "--window", type=float, default=120.0, help="dispatch-window length in seconds"
    )
    serve.add_argument(
        "--backpressure", type=int, default=8,
        help="max per-shard window-queue depth before ingestion pauses",
    )
    serve.add_argument(
        "--max-batch", type=int, default=512,
        help="ship a window in slices of at most this many orders",
    )
    serve.add_argument("--seed", type=int, default=2017, help="soak synthesis seed")
    serve.add_argument(
        "--parity-epochs", type=int, default=1,
        help="epochs per city to verify against the offline replay (-1 for all)",
    )
    serve.add_argument(
        "--report-json", metavar="PATH",
        help="also write the full soak report as JSON",
    )
    serve.add_argument(
        "--metrics-port", type=int, default=None, metavar="PORT",
        help="serve Prometheus /metrics and JSON /health on 127.0.0.1:PORT "
        "for the duration of the soak",
    )
    _add_trace_arg(serve)

    return parser


# ----------------------------------------------------------------------
# sub-command implementations
# ----------------------------------------------------------------------
def _cmd_generate_trace(args: argparse.Namespace) -> int:
    trips = generate_trace(trip_count=args.trips, seed=args.seed)
    count = write_porto_csv(trips, args.output)
    print(f"wrote {count} trips to {args.output}")
    return 0


def _cmd_build_market(args: argparse.Namespace) -> int:
    trips = generate_trace(trip_count=args.trips, seed=args.seed)
    drivers = generate_drivers(
        count=args.drivers,
        working_model=WorkingModel(args.working_model),
        seed=args.seed + 1,
    )
    pricing = LinearPricing(schedule=FareSchedule(), alpha=args.surge)
    instance = market_from_trace(trips, drivers, pricing=pricing)
    save_instance(instance, args.output)
    print(
        f"saved market with {instance.task_count} tasks and {instance.driver_count} drivers "
        f"to {args.output}"
    )
    return 0


def _parse_grid(text: str) -> tuple:
    try:
        rows_text, cols_text = text.lower().split("x", 1)
        rows, cols = int(rows_text), int(cols_text)
    except ValueError:
        raise SystemExit(f"invalid --grid {text!r}; expected ROWSxCOLS, e.g. 2x2")
    if rows < 1 or cols < 1:
        raise SystemExit(f"invalid --grid {text!r}; rows and cols must be >= 1")
    return rows, cols


def _batch_config(args: argparse.Namespace, window_s: float):
    """A :class:`BatchConfig` from the CLI's window + horizon knobs, with
    validation errors surfaced as clean CLI errors instead of tracebacks."""
    from .online.batch import BatchConfig

    try:
        return BatchConfig(
            window_s=window_s,
            horizon=args.horizon,
            overlap=args.overlap,
            forecast=args.forecast,
        )
    except ValueError as exc:
        raise SystemExit(f"error: {exc.args[0]}")


def _cmd_solve_stream(args: argparse.Namespace, instance) -> int:
    """``solve --stream``: live windowed dispatch on the sharded pool."""
    from .distributed import DistributedCoordinator, SpatialPartitioner
    from .geo import bounding_box_of

    rows, cols = _parse_grid(args.grid)
    points = [d.source for d in instance.drivers] + [d.destination for d in instance.drivers]
    points += [t.source for t in instance.tasks] + [t.destination for t in instance.tasks]
    region = bounding_box_of(points)
    if region is None:
        raise SystemExit("market is empty; nothing to stream")
    with DistributedCoordinator(
        SpatialPartitioner(region, rows, cols),
        executor=args.executor,
        transport=args.transport,
    ) as coordinator:
        try:
            result = coordinator.solve_stream(
                instance, config=_batch_config(args, args.batch_window)
            )
        except ValueError as exc:
            raise SystemExit(f"error: {exc.args[0]}")
    report = result.report
    dispatch = "myopic" if args.horizon <= 1 else f"horizon={args.horizon}"
    print(
        f"algorithm: batched (streamed, {args.executor} executor, "
        f"{dispatch} dispatch, {report.transport} transport)"
    )
    print(
        f"shards: {report.shard_count} ({rows}x{cols} grid), "
        f"workers: {report.worker_count}, batches: {report.batch_count}, "
        f"wall clock: {report.wall_clock_s:.2f}s"
    )
    print(format_metric_dict(result.solution.summary()))
    if args.output:
        save_solution(result.solution, args.output, algorithm="batched-stream")
        print(f"solution written to {args.output}")
    return 0


def _load_market(path: str):
    """:func:`load_instance`, with a bad market file — missing, unreadable,
    not JSON or not a market document — ending in one ``error:`` line."""
    try:
        return load_instance(path)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, SerializationError) as exc:
        raise SystemExit(f"error: cannot load market {path}: {exc}")


def _cmd_solve(args: argparse.Namespace) -> int:
    instance = _load_market(args.market)
    if args.stream:
        return _cmd_solve_stream(args, instance)
    bounds = None
    if args.algorithm == "greedy":
        solution = greedy_assignment(instance)
    elif args.algorithm == "exact":
        try:
            solution = exact_optimum(instance).solution
        except ExactSolverError as exc:
            raise SystemExit(f"error: {exc.args[0]}; --algorithm lp has no size limit")
    elif args.algorithm in ("lp", "auto"):
        from .offline import solve_exact_tier

        solution, bounds = solve_exact_tier(
            instance, mode=args.algorithm, gap_threshold=args.gap_threshold
        )
    elif args.algorithm == "batched":
        solution = BatchedSimulator(instance, _batch_config(args, args.batch_window)).run()
    else:
        dispatcher = MaxMarginDispatcher() if args.algorithm == "maxMargin" else NearestDispatcher()
        solution = OnlineSimulator(instance, dispatcher).run()

    print(f"algorithm: {args.algorithm}")
    if bounds is not None:
        print(f"exact tier chose: {bounds.chosen_solver}")
        print(format_metric_dict(bounds.as_dict()))
    print(format_metric_dict(solution.summary()))
    if args.output:
        save_solution(solution, args.output, algorithm=args.algorithm)
        print(f"solution written to {args.output}")
    return 0


def _cmd_bound(args: argparse.Namespace) -> int:
    instance = _load_market(args.market)
    try:
        value = compute_upper_bound(instance, _BOUNDS[args.kind])
    except ExactSolverError as exc:
        raise SystemExit(f"error: {exc.args[0]}; --kind lp has no size limit")
    print(f"{args.kind} upper bound: {value:.4f}")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    instance = _load_market(args.market)
    print(format_metric_dict(graph_summary(instance)))
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    scale = _SCALES[args.scale]
    config = ExperimentConfig(scale=scale)
    if args.figure == "all":
        scenarios = _parse_scenario_names(args.scenarios or None)
        # One warm worker pool for every distributed solve in the run: the
        # partitioning ablation's whole grid sweep (and the scenario suite,
        # when requested) reuses the same forked workers instead of paying
        # executor startup per grid point.
        with PersistentWorkerPool(executor=args.executor) as pool:
            print(
                run_everything(
                    scale=scale,
                    partition_executor=args.executor,
                    stream=args.stream,
                    pool=pool,
                    scenarios=scenarios,
                ).render()
            )
        return 0
    if args.figure == "fig3-4":
        print(run_distribution_experiment(config).render())
        return 0
    if args.figure == "fig5":
        print(run_fig5(config=config).render())
        return 0
    if args.figure == "fig6-9":
        print(run_market_insight_sweep(config=config).render_all())
        return 0
    if args.figure == "ablations":
        print(run_surge_ablation(config=config).render())
        print()
        with PersistentWorkerPool(executor=args.executor) as pool:
            print(
                run_partition_ablation(
                    config=config, executor=args.executor, stream=args.stream, pool=pool
                ).render()
            )
        return 0
    raise AssertionError(f"unhandled figure choice {args.figure!r}")


def _parse_scenario_names(text: Optional[str]) -> Optional[list]:
    """Split a comma-separated scenario-name list, tolerating whitespace and
    failing with a clean CLI error (not a traceback) on unknown names.
    ``None`` input stays ``None``; ``"all"`` resolves to the whole library.
    """
    if text is None:
        return None
    from .scenarios import get_scenario, scenario_names

    if text.strip() == "all":
        return scenario_names()
    names = [token.strip() for token in text.split(",") if token.strip()]
    for name in names:
        try:
            get_scenario(name)
        except KeyError as exc:
            raise SystemExit(f"error: {exc.args[0]}")
    return names


def _cmd_scenario(args: argparse.Namespace) -> int:
    from .scenarios import (
        BUILTIN_SCENARIOS,
        compile_scenario,
        get_scenario,
        run_scenario_suite,
    )

    if args.scenario_command == "list":
        width = max(len(name) for name in BUILTIN_SCENARIOS)
        for name, spec in BUILTIN_SCENARIOS.items():
            events = ", ".join(type(e).__name__ for e in spec.events)
            print(f"{name.ljust(width)}  [{events}]")
            print(f"{' ' * width}  {spec.description}")
        return 0

    if args.scenario_command == "run":
        try:
            spec = get_scenario(args.name).with_scale(args.trips, args.drivers)
        except (KeyError, ValueError) as exc:
            raise SystemExit(f"error: {exc.args[0]}")
        if args.seed is not None:
            spec = spec.with_seed(args.seed)
        compiled = compile_scenario(spec)
        rows, cols = _parse_grid(args.grid)
        print(
            f"scenario: {spec.name} — {spec.description}\n"
            f"compiled: {len(compiled.trips)} trips, {compiled.instance.task_count} "
            f"tasks, {compiled.instance.driver_count} drivers "
            f"(checksum {compiled.checksum()[:12]})"
        )
        from .distributed import DistributedCoordinator, SpatialPartitioner

        with DistributedCoordinator(
            SpatialPartitioner(spec.region, rows, cols),
            solver_name=args.solver,
            executor=args.executor,
            gap_threshold=args.gap_threshold,
        ) as coordinator:
            if args.mode == "offline":
                result = coordinator.solve(compiled.instance)
                print(f"mode: offline-{args.solver} ({args.executor}, {rows}x{cols} grid)")
                report = result.report
                if report.bounds_reported:
                    print(
                        "bounds: greedy "
                        f"{report.greedy_revenue:.4f} <= lp {report.lp_revenue:.4f} "
                        f"<= bound {report.upper_bound:.4f} "
                        f"(gap {report.optimality_gap:.4%})"
                    )
                print(format_metric_dict(result.solution.summary()))
            else:
                try:
                    result = coordinator.solve_stream(
                        compiled.instance,
                        compiled.arrival_batches(),
                        config=_batch_config(args, spec.window_s),
                    )
                except ValueError as exc:
                    raise SystemExit(f"error: {exc.args[0]}")
                report = result.report
                mode = "stream-batched" if args.horizon <= 1 else (
                    f"stream-horizon[h={args.horizon},ov={args.overlap},"
                    f"forecast={args.forecast}]"
                )
                print(
                    f"mode: {mode} ({args.executor}, {rows}x{cols} grid), "
                    f"{report.batch_count} batches, mean wait "
                    f"{result.solution.mean_wait_s:.1f}s, wall {report.wall_clock_s:.2f}s"
                )
                print(format_metric_dict(result.solution.summary()))
        return 0

    if args.scenario_command == "compare":
        from .scenarios import OFFLINE_SOLVERS

        names = _parse_scenario_names(args.names)
        solvers = tuple(s.strip() for s in args.solvers.split(",") if s.strip())
        for solver in solvers:
            if solver not in OFFLINE_SOLVERS:
                raise SystemExit(
                    f"error: unknown solver {solver!r}; expected a subset of "
                    f"{list(OFFLINE_SOLVERS)}"
                )
        rows, cols = _parse_grid(args.grid)
        scenarios = None
        if names is not None or args.trips is not None or args.drivers is not None:
            from .scenarios import scenario_names

            try:
                scenarios = [
                    get_scenario(name).with_scale(args.trips, args.drivers)
                    for name in (names if names is not None else scenario_names())
                ]
            except ValueError as exc:
                raise SystemExit(f"error: {exc.args[0]}")
        try:
            suite = run_scenario_suite(
                scenarios,
                solvers=solvers,
                stream=args.stream,
                rows=rows,
                cols=cols,
                executor=args.executor,
                bounds=args.bounds,
                gap_threshold=args.gap_threshold,
                horizon=args.horizon,
                overlap=args.overlap,
                forecast=args.forecast,
            )
        except ValueError as exc:
            raise SystemExit(f"error: {exc.args[0]}")
        print(suite.render())
        return 0

    raise AssertionError(f"unhandled scenario command {args.scenario_command!r}")


def _cmd_serve(args: argparse.Namespace) -> int:
    """``repro serve``: the asyncio dispatch service under a synthetic soak.

    The service owns one coordinator + one persistent worker pool per city;
    teardown is unconditional (the service's async context manager closes
    every stream and pool even on Ctrl-C, which exits 130 without orphaning
    worker processes).
    """
    import multiprocessing

    from .service import SoakConfig, run_soak

    rows, cols = _parse_grid(args.grid)
    config = SoakConfig(
        orders=args.orders,
        cities=args.cities,
        epochs=args.epochs,
        drivers_per_city=args.drivers,
        window_s=args.window,
        rows=rows,
        cols=cols,
        executor=args.executor,
        workers=args.workers,
        transport=args.transport,
        backpressure_depth=args.backpressure,
        max_batch=args.max_batch,
        seed=args.seed,
        parity_epochs=None if args.parity_epochs < 0 else args.parity_epochs,
        metrics_port=args.metrics_port,
    )

    def _announce(service) -> None:
        workers = ",".join(
            str(child.pid) for child in multiprocessing.active_children()
        )
        print(
            f"SERVE_READY cities={args.cities} executor={args.executor} "
            f"workers={workers or '-'}",
            flush=True,
        )

    try:
        report = run_soak(config, on_ready=_announce)
    except KeyboardInterrupt:
        print(
            "interrupted — streams closed, worker pools shut down", file=sys.stderr
        )
        return 130
    payload = report.to_payload()
    latency = payload["dispatch_latency"]
    print(
        f"soak complete: {payload['orders']} orders, {args.cities} cities x "
        f"{args.epochs} epochs, {payload['wall_clock_s']}s wall clock "
        f"({payload['orders_per_second']} orders/s)"
    )
    print(
        f"dispatch latency: p50 {latency['p50_ms']:.1f}ms, "
        f"p99 {latency['p99_ms']:.1f}ms; serve rate {payload['serve_rate']:.3f}"
    )
    print(
        f"parity (service == replay): {'ok' if payload['parity_ok'] else 'MISMATCH'} "
        f"over {payload['parity_checked_epochs']} epoch(s)"
    )
    if args.report_json:
        with open(args.report_json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        print(f"report written to {args.report_json}")
    return 0 if payload["parity_ok"] else 1


_COMMANDS = {
    "generate-trace": _cmd_generate_trace,
    "build-market": _cmd_build_market,
    "solve": _cmd_solve,
    "bound": _cmd_bound,
    "info": _cmd_info,
    "experiment": _cmd_experiment,
    "scenario": _cmd_scenario,
    "serve": _cmd_serve,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of the ``repro`` console script."""
    from .obs import configure_logging

    parser = build_parser()
    args = parser.parse_args(argv)
    _reject_unread_flags(args)
    try:
        configure_logging(args.log_level)  # None falls back to REPRO_LOG
    except ValueError as exc:
        raise SystemExit(f"error: {exc.args[0]}")
    handler = _COMMANDS[args.command]
    trace_out = getattr(args, "trace_out", None)
    if not trace_out:
        return handler(args)
    from .obs import disable_tracing, enable_tracing, phase_totals, write_chrome_trace

    recorder = enable_tracing()
    try:
        status = handler(args)
    finally:
        disable_tracing()
        spans = recorder.export()
        write_chrome_trace(trace_out, spans)
        phases = ", ".join(
            f"{name} {seconds:.3f}s"
            for name, seconds in phase_totals(spans)
            if seconds > 0.0
        )
        print(
            f"trace written to {trace_out} ({len(spans)} spans"
            + (f"; {phases}" if phases else "")
            + ")"
        )
    return status


if __name__ == "__main__":
    sys.exit(main())
