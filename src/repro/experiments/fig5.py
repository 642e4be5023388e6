"""Figure 5 — performance ratios of the three algorithms vs. the upper bound.

For each driver count the three algorithms run on the same instance, their
drivers'-total-profit is compared against the LP-relaxation upper bound
``Z*_f`` (or, optionally, the exact optimum or the Lagrangian bound), and the
ratio series are reported for both working models:

* left plot  — the "hitchhiking" model (random driver source/destination);
* right plot — the "home-work-home" model (source == destination).

The expected shape, per the paper: Greedy achieves the best (lowest) ratio,
maxMargin is second, Nearest is worst, and the hitchhiking model achieves
better ratios than home-work-home.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..analysis.ratio import BoundKind, PerformanceRatio, compute_upper_bound
from ..analysis.reporting import format_series_table
from ..trace.drivers import WorkingModel
from .algorithms import ALGORITHM_NAMES, standard_algorithms
from .config import ExperimentConfig, ExperimentScale, Workload, build_workload


@dataclass(frozen=True)
class Fig5Point:
    """All measurements for one driver count."""

    driver_count: int
    upper_bound: float
    achieved: Dict[str, float]
    ratios: Dict[str, float]
    efficiencies: Dict[str, float]


@dataclass(frozen=True)
class Fig5Result:
    """One curve bundle (one working model, i.e. one half of Fig. 5)."""

    working_model: WorkingModel
    bound_kind: BoundKind
    points: Tuple[Fig5Point, ...]

    @property
    def driver_counts(self) -> Tuple[int, ...]:
        return tuple(p.driver_count for p in self.points)

    def ratio_series(self, algorithm: str) -> Tuple[float, ...]:
        return tuple(p.ratios[algorithm] for p in self.points)

    def efficiency_series(self, algorithm: str) -> Tuple[float, ...]:
        return tuple(p.efficiencies[algorithm] for p in self.points)

    def mean_efficiency(self, algorithm: str) -> float:
        values = self.efficiency_series(algorithm)
        return sum(values) / len(values) if values else 0.0

    def render(self) -> str:
        series = {name: self.ratio_series(name) for name in ALGORITHM_NAMES}
        table = format_series_table("drivers", list(self.driver_counts), series)
        return (
            f"Fig. 5 ({self.working_model.value} model, bound = {self.bound_kind.value}); "
            "performance ratio = upper bound / achieved profit (lower is better)\n" + table
        )


def run_fig5(
    working_model: WorkingModel = WorkingModel.HITCHHIKING,
    scale: Optional[ExperimentScale] = None,
    bound_kind: BoundKind = BoundKind.LP_RELAXATION,
    config: Optional[ExperimentConfig] = None,
    workload: Optional[Workload] = None,
) -> Fig5Result:
    """Run one half of Fig. 5.

    Either pass a pre-built ``workload`` (its config wins) or let this build
    one from ``config`` / ``scale`` / ``working_model``.
    """
    if workload is None:
        cfg = config or ExperimentConfig(
            scale=scale if scale is not None else ExperimentConfig().scale,
            working_model=working_model,
        )
        workload = build_workload(cfg)
    else:
        cfg = workload.config
    points: List[Fig5Point] = []
    for driver_count in cfg.scale.driver_counts:
        instance = workload.instance_with_drivers(driver_count)
        bound = compute_upper_bound(instance, bound_kind=bound_kind)
        achieved: Dict[str, float] = {}
        for spec in standard_algorithms():
            achieved[spec.name] = spec.run(instance).total_value
        ratios = {
            name: PerformanceRatio(name, value, bound, bound_kind).ratio
            for name, value in achieved.items()
        }
        efficiencies = {
            name: PerformanceRatio(name, value, bound, bound_kind).efficiency
            for name, value in achieved.items()
        }
        points.append(
            Fig5Point(
                driver_count=driver_count,
                upper_bound=bound,
                achieved=achieved,
                ratios=ratios,
                efficiencies=efficiencies,
            )
        )
    return Fig5Result(
        working_model=cfg.working_model, bound_kind=bound_kind, points=tuple(points)
    )
