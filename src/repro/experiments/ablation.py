"""Ablation experiments on the framework's design choices.

Two ablations beyond the paper's own figures:

* **Surge multiplier** — the paper argues (Section VI-C) that surge pricing
  is a lever for controlling market congestion.  This ablation sweeps the
  static multiplier of Eq. (15) and reports how drivers' profit, the serve
  rate and revenue per driver respond.
* **Spatial partitioning** — the introduction argues that the market cannot
  be partitioned below city scale without losing cross-district trips.  This
  ablation shards the same instance into 1x1, 2x2, 3x3, ... zone grids and
  reports how much objective value is lost and how much wall-clock is gained.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis.reporting import format_table
from ..distributed.coordinator import DistributedCoordinator
from ..distributed.partition import SpatialPartitioner
from ..distributed.pool import PersistentWorkerPool
from ..market.instance import MarketInstance, tasks_from_trips
from ..offline.greedy import greedy_assignment
from ..trace.drivers import WorkingModel
from .config import ExperimentConfig, ExperimentScale, Workload, build_workload


# ----------------------------------------------------------------------
# surge-multiplier ablation
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class SurgePoint:
    """Metrics at one surge-multiplier setting."""

    multiplier: float
    total_profit: float
    serve_rate: float
    revenue_per_driver: float


@dataclass(frozen=True)
class SurgeAblationResult:
    points: Tuple[SurgePoint, ...]

    def render(self) -> str:
        rows = [
            [p.multiplier, p.total_profit, p.serve_rate, p.revenue_per_driver]
            for p in self.points
        ]
        return "Surge-multiplier ablation (greedy assignment)\n" + format_table(
            ["alpha", "total_profit", "serve_rate", "revenue_per_driver"], rows
        )


def run_surge_ablation(
    multipliers: Sequence[float] = (1.0, 1.2, 1.5, 2.0, 2.5),
    driver_count: Optional[int] = None,
    config: Optional[ExperimentConfig] = None,
) -> SurgeAblationResult:
    """Re-price the same day of trips at different surge multipliers and solve
    each market with the greedy algorithm."""
    cfg = config or ExperimentConfig()
    workload = build_workload(cfg)
    count = driver_count if driver_count is not None else cfg.scale.driver_counts[-1]
    base = workload.instance_with_drivers(count)

    points: List[SurgePoint] = []
    for alpha in multipliers:
        if alpha <= 0:
            raise ValueError("surge multipliers must be positive")
        repriced_cfg = ExperimentConfig(
            scale=cfg.scale,
            working_model=cfg.working_model,
            bounding_box=cfg.bounding_box,
            surge_multiplier=alpha,
            trace_seed=cfg.trace_seed,
            driver_seed=cfg.driver_seed,
        )
        tasks = tasks_from_trips(workload.trips, pricing=repriced_cfg.pricing_policy())
        instance = base.with_tasks(tasks)
        solution = greedy_assignment(instance)
        points.append(
            SurgePoint(
                multiplier=alpha,
                total_profit=solution.total_value,
                serve_rate=solution.serve_rate,
                revenue_per_driver=solution.revenue_per_driver(),
            )
        )
    return SurgeAblationResult(points=tuple(points))


# ----------------------------------------------------------------------
# spatial-partitioning ablation
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class PartitionPoint:
    """Metrics at one shard-grid setting."""

    shard_grid: Tuple[int, int]
    shard_count: int
    total_profit: float
    served_count: int
    wall_clock_s: float
    value_retention: float


@dataclass(frozen=True)
class PartitionAblationResult:
    baseline_profit: float
    points: Tuple[PartitionPoint, ...]
    #: ``"greedy"`` (offline re-solve per shard) or ``"stream"`` (live
    #: windowed dispatch through the persistent shard pool).
    mode: str = "greedy"

    def render(self) -> str:
        rows = [
            [
                f"{p.shard_grid[0]}x{p.shard_grid[1]}",
                p.shard_count,
                p.total_profit,
                p.served_count,
                p.wall_clock_s,
                p.value_retention,
            ]
            for p in self.points
        ]
        baseline_label = (
            "unsharded greedy" if self.mode == "greedy" else "unsharded batched stream"
        )
        return (
            f"Partitioning ablation ({self.mode} mode, baseline {baseline_label} "
            f"profit = {self.baseline_profit:.2f})\n"
            + format_table(
                ["grid", "shards", "profit", "served", "wall_clock_s", "retention"], rows
            )
        )


def run_partition_ablation(
    grids: Sequence[Tuple[int, int]] = ((1, 1), (2, 2), (3, 3), (4, 4)),
    driver_count: Optional[int] = None,
    config: Optional[ExperimentConfig] = None,
    executor: str = "serial",
    max_workers: Optional[int] = None,
    stream: bool = False,
    window_s: float = 60.0,
    pool: Optional[PersistentWorkerPool] = None,
) -> PartitionAblationResult:
    """Solve the same market with increasingly fine spatial shards.

    ``executor`` selects the coordinator's fan-out policy (``"serial"`` or
    ``"process"``); the merged solutions are identical across policies, only
    ``wall_clock_s`` changes.  With ``stream=True`` each grid
    point consumes the day as a *live* order stream through per-shard
    streaming sessions on the persistent worker pool (``solve_stream``)
    instead of an offline greedy re-solve — the streaming twin of the same
    sharding trade-off, with ``window_s`` dispatch windows.

    Every grid point — offline *and* streamed — runs on **one** warm
    :class:`~repro.distributed.pool.PersistentWorkerPool` held across the
    whole sweep, so worker startup is paid once per ablation rather than
    once per grid.  Pass ``pool=`` to share an even longer-lived pool (the
    CLI's ``experiment`` command does, across every figure it runs); the
    ablation only closes a pool it created itself.
    """
    cfg = config or ExperimentConfig()
    workload = build_workload(cfg)
    count = driver_count if driver_count is not None else cfg.scale.driver_counts[-1]
    instance = workload.instance_with_drivers(count)

    if stream:
        from ..online.batch import BatchConfig, run_batched

        batch_config = BatchConfig(window_s=window_s)
        baseline = run_batched(instance, config=batch_config).total_value
    else:
        batch_config = None
        baseline = greedy_assignment(instance).total_value

    owns_pool = pool is None
    if owns_pool:
        pool = PersistentWorkerPool(executor=executor, worker_count=max_workers)
    points: List[PartitionPoint] = []
    try:
        for rows, cols in grids:
            coordinator = DistributedCoordinator(
                SpatialPartitioner(cfg.bounding_box, rows, cols),
                solver_name="greedy",
                executor=executor,
                max_workers=max_workers,
            )
            start = time.perf_counter()
            if stream:
                streamed = coordinator.solve_stream(
                    instance, config=batch_config, pool=pool
                )
                solution = streamed.solution
            else:
                solution = coordinator.solve(instance, pool=pool).solution
            elapsed = time.perf_counter() - start
            retention = solution.total_value / baseline if baseline > 0 else 1.0
            points.append(
                PartitionPoint(
                    shard_grid=(rows, cols),
                    shard_count=rows * cols,
                    total_profit=solution.total_value,
                    served_count=solution.served_count,
                    wall_clock_s=elapsed,
                    value_retention=retention,
                )
            )
    finally:
        if owns_pool:
            pool.close()
    return PartitionAblationResult(
        baseline_profit=baseline,
        points=tuple(points),
        mode="stream" if stream else "greedy",
    )
