"""Scenario suite: sweep scenarios x dispatch modes on one warm pool.

The suite is the scenario engine's answer to "which dispatcher survives
which city day": every scenario is compiled once, then run through the
offline sharded ``solve()`` path (one run per requested solver) and the
streamed ``solve_stream()`` path (batched Hungarian dispatch over the
compiled arrival batches) — **all on a single warm
:class:`~repro.distributed.pool.PersistentWorkerPool`**, so a six-scenario,
four-mode sweep pays worker startup once, exactly like the ablation sweeps.

Per (scenario, mode) the suite records the comparison row the ISSUE asks
for: serve rate, revenue/value, mean customer wait (streamed modes; the
offline solver has no clock) and the shard-load skew
(:attr:`~repro.distributed.messages.FanOutReport.shard_skew`) the
scenario induced on the partition — the number that tells you a stadium
scenario needs a rebalance policy while a rainy day does not.

With ``bounds=True`` (the default) every scenario additionally runs the
exact tier once (``solver="lp"``, :mod:`repro.offline.flow`) and stamps the
scenario's bound sandwich — greedy value, LP value, Lagrangian bound and the
greedy optimality gap — onto each of its rows, so the suite reports numbers
*with error bars* (the "Exact tier at scale" ROADMAP item).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..analysis.reporting import format_table
from ..distributed.coordinator import SOLVER_NAMES, DistributedCoordinator
from ..distributed.partition import SpatialPartitioner
from ..distributed.pool import PersistentWorkerPool
from ..online.batch import BatchConfig
from .compiler import CompiledScenario, compile_scenario
from .library import get_scenario
from .spec import ScenarioSpec

#: Offline shard solvers the suite can sweep: the coordinator's.
OFFLINE_SOLVERS = SOLVER_NAMES


def _json_float(value: float) -> Optional[float]:
    return None if math.isnan(value) else value


@dataclass(frozen=True, slots=True)
class ScenarioRunMetrics:
    """One (scenario, mode) comparison row."""

    scenario: str
    #: ``"offline-<solver>"``, ``"stream-batched"`` or ``"stream-horizon"``.
    mode: str
    executor: str
    task_count: int
    driver_count: int
    shard_count: int
    serve_rate: float
    total_value: float
    total_revenue: float
    #: Mean publish->pickup wait of a served task; NaN where no arrival was
    #: tracked (greedy / lp / auto / exact have no dispatch clock).
    mean_wait_s: float
    #: Hottest shard's task load over the mean (1.0 = perfectly balanced).
    shard_skew: float
    wall_clock_s: float
    #: Scenario-level bound sandwich from the exact tier's sharded solve
    #: (``bounds=True``): greedy and LP *objective* values and the summed
    #: per-shard Lagrangian bound.  Every row of a scenario shares the same
    #: values — they are properties of the scenario, not of the row's mode —
    #: so each scenario's numbers carry their error bar wherever the rows
    #: travel.  NaN when the bounds pass was disabled.
    greedy_revenue: float = float("nan")
    lp_revenue: float = float("nan")
    lagrangian_bound: float = float("nan")
    #: Relative gap of the greedy incumbent against the certified upper
    #: bound (min of LP and Lagrangian per shard, summed) — how far the
    #: heuristic tier can be from the sharded optimum; always >= 0.  The
    #: stream rows keep the same offline-referenced gap: an online dispatch
    #: may legally chain tasks the offline task-map DAG rules out, so the
    #: DAG bound does not bound stream revenue.
    optimality_gap: float = float("nan")

    def as_dict(self) -> Dict[str, object]:
        """JSON-safe view: the offline modes' NaN wait (and the NaN bound
        columns of a boundless run) become ``None`` so artifacts built from
        these rows stay valid strict JSON."""
        return {
            "scenario": self.scenario,
            "mode": self.mode,
            "executor": self.executor,
            "task_count": self.task_count,
            "driver_count": self.driver_count,
            "shard_count": self.shard_count,
            "serve_rate": self.serve_rate,
            "total_value": self.total_value,
            "total_revenue": self.total_revenue,
            "mean_wait_s": _json_float(self.mean_wait_s),
            "shard_skew": self.shard_skew,
            "wall_clock_s": self.wall_clock_s,
            "greedy_revenue": _json_float(self.greedy_revenue),
            "lp_revenue": _json_float(self.lp_revenue),
            "lagrangian_bound": _json_float(self.lagrangian_bound),
            "optimality_gap": _json_float(self.optimality_gap),
        }


@dataclass(frozen=True)
class ScenarioSuiteResult:
    """Every comparison row of one suite run."""

    rows: Tuple[ScenarioRunMetrics, ...]
    executor: str
    worker_count: int

    def scenarios(self) -> List[str]:
        """Distinct scenario names, preserving run order."""
        seen: List[str] = []
        for row in self.rows:
            if row.scenario not in seen:
                seen.append(row.scenario)
        return seen

    def render(self) -> str:
        """The per-scenario metrics comparison as an aligned text table."""
        headers = (
            "scenario", "mode", "tasks", "drivers", "serve_rate",
            "total_value", "revenue", "wait_s", "shard_skew", "opt_gap", "wall_s",
        )
        table_rows = [
            (
                row.scenario,
                row.mode,
                row.task_count,
                row.driver_count,
                row.serve_rate,
                row.total_value,
                row.total_revenue,
                "-" if math.isnan(row.mean_wait_s) else f"{row.mean_wait_s:.1f}",
                row.shard_skew,
                "-" if math.isnan(row.optimality_gap) else f"{row.optimality_gap:.4f}",
                row.wall_clock_s,
            )
            for row in self.rows
        ]
        title = (
            f"Scenario suite — {len(self.scenarios())} scenarios, "
            f"executor={self.executor}, {self.worker_count} pool workers"
        )
        return title + "\n" + format_table(headers, table_rows)


def _resolve_specs(
    scenarios: Optional[Sequence[Union[str, ScenarioSpec]]]
) -> List[ScenarioSpec]:
    from .library import scenario_names

    if scenarios is None:
        scenarios = scenario_names()
    specs: List[ScenarioSpec] = []
    for item in scenarios:
        specs.append(get_scenario(item) if isinstance(item, str) else item)
    return specs


def run_scenario_suite(
    scenarios: Optional[Sequence[Union[str, ScenarioSpec]]] = None,
    *,
    solvers: Sequence[str] = ("greedy",),
    stream: bool = True,
    rows: int = 2,
    cols: int = 2,
    executor: str = "serial",
    worker_count: Optional[int] = None,
    pool: Optional[PersistentWorkerPool] = None,
    bounds: bool = True,
    gap_threshold: float = 0.02,
    horizon: int = 1,
    overlap: int = 0,
    forecast: str = "ewma",
) -> ScenarioSuiteResult:
    """Sweep scenarios x dispatch modes on one warm worker pool.

    Parameters
    ----------
    scenarios:
        Built-in names and/or explicit :class:`ScenarioSpec`\\ s; default is
        the whole built-in library.
    solvers:
        Offline shard solvers to run per scenario (subset of
        :data:`OFFLINE_SOLVERS`; empty to skip the offline path).
    stream:
        Also run the streamed batched-Hungarian path per scenario.
    rows / cols:
        The shard grid over each scenario's service region.
    executor / worker_count:
        Pool policy and width when the suite creates its own pool.
    pool:
        An externally owned warm pool — the suite never closes it, so one
        pool can serve many suites (and interleave with other work).
    bounds:
        Run the exact tier (``solver="lp"``) once per scenario and stamp the
        scenario's bound sandwich — ``greedy_revenue``, ``lp_revenue``,
        ``lagrangian_bound``, ``optimality_gap`` — onto every row, turning
        the suite's numbers into numbers with error bars.  When ``"lp"`` is
        among ``solvers`` the bounds pass doubles as that row (no second
        solve); disable to skip the LP cost entirely (the columns are NaN).
    gap_threshold:
        Relative-gap knob forwarded to the exact tier (used by ``"auto"``
        rows; the bounds pass itself always solves the LP).
    horizon / overlap / forecast:
        With ``horizon > 1`` (and ``stream=True``) each scenario also runs a
        ``"stream-horizon"`` row: the same streamed path under rolling-horizon
        dispatch (:mod:`repro.online.horizon`), so the suite reports the
        serve-rate/mean-wait delta of lookahead over the myopic stream row.
        Streamed runs reveal the future only as it publishes, so the live
        forecaster is ``"ewma"`` (the ``"oracle"`` variant needs replay and
        is rejected by ``stream_begin``).
    """
    specs = _resolve_specs(scenarios)
    for solver in solvers:
        if solver not in OFFLINE_SOLVERS:
            raise ValueError(
                f"unknown solver {solver!r}; expected a subset of {OFFLINE_SOLVERS}"
            )
    own_pool = pool is None
    if own_pool:
        pool = PersistentWorkerPool(executor=executor, worker_count=worker_count)
    metrics: List[ScenarioRunMetrics] = []
    try:
        for spec in specs:
            compiled = compile_scenario(spec)
            metrics.extend(
                _run_one(compiled, solvers=solvers, stream=stream,
                         rows=rows, cols=cols, pool=pool,
                         bounds=bounds, gap_threshold=gap_threshold,
                         horizon=horizon, overlap=overlap, forecast=forecast)
            )
    finally:
        if own_pool:
            pool.close()
    return ScenarioSuiteResult(
        rows=tuple(metrics), executor=pool.executor, worker_count=pool.worker_count
    )


def _run_one(
    compiled: CompiledScenario,
    *,
    solvers: Sequence[str],
    stream: bool,
    rows: int,
    cols: int,
    pool: PersistentWorkerPool,
    bounds: bool = True,
    gap_threshold: float = 0.02,
    horizon: int = 1,
    overlap: int = 0,
    forecast: str = "ewma",
) -> List[ScenarioRunMetrics]:
    """All modes of one compiled scenario on the shared pool."""
    spec = compiled.spec
    instance = compiled.instance
    out: List[ScenarioRunMetrics] = []

    def coordinator_for(solver: str) -> DistributedCoordinator:
        return DistributedCoordinator(
            SpatialPartitioner(spec.region, rows, cols),
            solver_name=solver,
            executor=pool.executor,
            gap_threshold=gap_threshold,
        )

    # Bounds pass: one exact-tier solve per scenario; its report carries the
    # scenario's error bar (columns stamped onto every row below), and —
    # when "lp" is among the requested solvers — it *is* that row's solve.
    bound_columns = {
        "greedy_revenue": float("nan"),
        "lp_revenue": float("nan"),
        "lagrangian_bound": float("nan"),
        "optimality_gap": float("nan"),
    }
    lp_precomputed = None
    if bounds:
        start = time.perf_counter()
        lp_result = coordinator_for("lp").solve(instance, pool=pool)
        lp_wall = time.perf_counter() - start
        lp_precomputed = (lp_result, lp_wall)
        report = lp_result.report
        bound_columns = {
            "greedy_revenue": report.greedy_revenue,
            "lp_revenue": report.lp_revenue,
            "lagrangian_bound": report.lagrangian_bound,
            "optimality_gap": report.greedy_gap,
        }

    for solver in solvers:
        if solver == "lp" and lp_precomputed is not None:
            result, wall = lp_precomputed
        else:
            start = time.perf_counter()
            result = coordinator_for(solver).solve(instance, pool=pool)
            wall = time.perf_counter() - start
        solution = result.solution
        out.append(
            ScenarioRunMetrics(
                scenario=spec.name,
                mode=f"offline-{solver}",
                executor=pool.executor,
                task_count=instance.task_count,
                driver_count=instance.driver_count,
                shard_count=result.report.shard_count,
                serve_rate=solution.serve_rate,
                total_value=solution.total_value,
                total_revenue=solution.total_revenue,
                mean_wait_s=solution.mean_wait_s,
                shard_skew=result.report.shard_skew,
                wall_clock_s=wall,
                **bound_columns,
            )
        )
    if stream:
        stream_configs = [("stream-batched", BatchConfig(window_s=spec.window_s))]
        if horizon > 1:
            stream_configs.append(
                (
                    "stream-horizon",
                    BatchConfig(
                        window_s=spec.window_s,
                        horizon=horizon,
                        overlap=overlap,
                        forecast=forecast,
                    ),
                )
            )
        coordinator = DistributedCoordinator(
            SpatialPartitioner(spec.region, rows, cols), executor=pool.executor
        )
        for mode, config in stream_configs:
            start = time.perf_counter()
            result = coordinator.solve_stream(
                instance,
                compiled.arrival_batches(),
                config=config,
                pool=pool,
            )
            wall = time.perf_counter() - start
            out.append(
                ScenarioRunMetrics(
                    scenario=spec.name,
                    mode=mode,
                    executor=pool.executor,
                    task_count=instance.task_count,
                    driver_count=instance.driver_count,
                    shard_count=result.report.shard_count,
                    serve_rate=result.solution.serve_rate,
                    total_value=result.solution.total_value,
                    total_revenue=result.solution.total_revenue,
                    mean_wait_s=result.solution.mean_wait_s,
                    shard_skew=result.report.shard_skew,
                    wall_clock_s=wall,
                    **bound_columns,
                )
            )
    return out
