"""Market-level metrics shared by the experiments.

Every algorithm, offline or online, returns a
:class:`repro.core.MarketSolution`, whose ``summary()`` is the per-run
metric vocabulary; this module adds the cross-cutting aggregations the
evaluation section of the paper plots — most importantly the market-density
sweeps of Figs. 6-9.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence

from ..core.solution import MarketSolution


@dataclass(frozen=True, slots=True)
class MarketMetrics:
    """The per-run metrics plotted in Figs. 6-9."""

    algorithm: str
    driver_count: int
    task_count: int
    total_value: float
    total_revenue: float
    served_count: int
    serve_rate: float
    revenue_per_driver: float
    tasks_per_driver: float

    @classmethod
    def from_solution(
        cls,
        algorithm: str,
        driver_count: int,
        task_count: int,
        solution: MarketSolution,
    ) -> "MarketMetrics":
        return cls(
            algorithm=algorithm,
            driver_count=driver_count,
            task_count=task_count,
            total_value=solution.total_value,
            total_revenue=solution.total_revenue,
            served_count=solution.served_count,
            serve_rate=solution.serve_rate,
            revenue_per_driver=solution.revenue_per_driver(),
            tasks_per_driver=solution.tasks_per_driver(),
        )

    def as_dict(self) -> Dict[str, float]:
        return {
            "algorithm": self.algorithm,
            "driver_count": self.driver_count,
            "task_count": self.task_count,
            "total_value": self.total_value,
            "total_revenue": self.total_revenue,
            "served_count": self.served_count,
            "serve_rate": self.serve_rate,
            "revenue_per_driver": self.revenue_per_driver,
            "tasks_per_driver": self.tasks_per_driver,
        }


@dataclass(frozen=True)
class SweepSeries:
    """One plotted curve: a metric as a function of the driver count."""

    algorithm: str
    metric: str
    driver_counts: tuple[int, ...]
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.driver_counts) != len(self.values):
            raise ValueError("driver_counts and values must have equal length")

    def is_non_decreasing(self, tolerance: float = 1e-9) -> bool:
        return all(
            later >= earlier - tolerance
            for earlier, later in zip(self.values, self.values[1:])
        )

    def is_non_increasing(self, tolerance: float = 1e-9) -> bool:
        return all(
            later <= earlier + tolerance
            for earlier, later in zip(self.values, self.values[1:])
        )

    def trend(self) -> float:
        """Last value minus first value — positive for a growing curve."""
        if not self.values:
            return 0.0
        return self.values[-1] - self.values[0]


def series_from_metrics(
    metrics: Sequence[MarketMetrics], algorithm: str, metric: str
) -> SweepSeries:
    """Extract one curve from a list of sweep measurements."""
    rows = sorted(
        (m for m in metrics if m.algorithm == algorithm), key=lambda m: m.driver_count
    )
    if not rows:
        raise ValueError(f"no measurements for algorithm {algorithm!r}")
    values = []
    for row in rows:
        record = row.as_dict()
        if metric not in record:
            raise KeyError(f"unknown metric {metric!r}")
        values.append(float(record[metric]))
    return SweepSeries(
        algorithm=algorithm,
        metric=metric,
        driver_counts=tuple(r.driver_count for r in rows),
        values=tuple(values),
    )


def algorithms_in(metrics: Iterable[MarketMetrics]) -> List[str]:
    """Distinct algorithm names, preserving first-seen order."""
    seen: List[str] = []
    for m in metrics:
        if m.algorithm not in seen:
            seen.append(m.algorithm)
    return seen
