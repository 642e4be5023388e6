"""Driver-level statistics of an assignment.

Beyond the market-level metrics the paper plots (Figs. 6-9), platform
operators care about how the work and the income are *distributed* across the
fleet: how many drivers got any work at all, how unequal the incomes are
(Gini coefficient), how much of the driven distance is empty repositioning,
and how busy the working time actually is.  These statistics apply uniformly
to every algorithm's :class:`~repro.core.MarketSolution`, offline or online,
through its ``driver_id -> task list`` assignment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Sequence, Tuple

import numpy as np

from ..market.driver import Driver
from ..market.instance import MarketInstance


@dataclass(frozen=True, slots=True)
class DriverWorkload:
    """Per-driver accounting of one assignment."""

    driver_id: str
    task_count: int
    revenue: float
    #: Distance driven with a customer on board.
    service_km: float
    #: Empty distance: to the first pickup, between drop-offs and pickups, and
    #: from the last drop-off home (minus the commute the driver would have
    #: driven anyway is *not* subtracted here — this is raw odometer reading).
    empty_km: float
    #: Time spent serving customers, as a fraction of the working window.
    utilization: float

    @property
    def total_km(self) -> float:
        return self.service_km + self.empty_km

    @property
    def empty_ratio(self) -> float:
        """Fraction of driven kilometres without a customer (deadheading)."""
        if self.total_km <= 0:
            return 0.0
        return self.empty_km / self.total_km


@dataclass(frozen=True)
class FleetStats:
    """Fleet-wide distributional statistics of an assignment."""

    workloads: Tuple[DriverWorkload, ...]
    gini_revenue: float
    active_fraction: float
    mean_utilization: float
    mean_empty_ratio: float
    total_service_km: float
    total_empty_km: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "drivers": float(len(self.workloads)),
            "active_fraction": self.active_fraction,
            "gini_revenue": self.gini_revenue,
            "mean_utilization": self.mean_utilization,
            "mean_empty_ratio": self.mean_empty_ratio,
            "total_service_km": self.total_service_km,
            "total_empty_km": self.total_empty_km,
        }


def gini_coefficient(values: Sequence[float]) -> float:
    """The Gini coefficient of a non-negative sample (0 = equal, 1 = maximal).

    Uses the standard mean-absolute-difference formulation; an empty or
    all-zero sample has coefficient 0 by convention.
    """
    data = np.asarray(list(values), dtype=float)
    if data.size == 0:
        return 0.0
    if (data < 0).any():
        raise ValueError("Gini coefficient requires non-negative values")
    total = data.sum()
    if total <= 0:
        return 0.0
    data = np.sort(data)
    index = np.arange(1, data.size + 1)
    return float((2.0 * (index * data).sum() - (data.size + 1) * total) / (data.size * total))


def _workload(
    instance: MarketInstance, driver: Driver, task_indices: Sequence[int]
) -> DriverWorkload:
    cost_model = instance.cost_model
    travel_model = cost_model.travel_model
    durations_s = instance.task_columns.durations_s

    revenue = 0.0
    service_km = 0.0
    empty_km = 0.0
    busy_s = 0.0
    location = driver.source
    for m in task_indices:
        task = instance.tasks[m]
        approach_km = travel_model.distance_km(location, task.source)
        empty_km += approach_km
        service_km += cost_model.task_distance_km(task)
        busy_s += float(durations_s[m]) + travel_model.time_for_distance_s(approach_km)
        revenue += task.price
        location = task.destination
    if task_indices:
        home_km = travel_model.distance_km(location, driver.destination)
        empty_km += home_km
        busy_s += travel_model.time_for_distance_s(home_km)

    window = max(1e-9, driver.working_duration_s)
    return DriverWorkload(
        driver_id=driver.driver_id,
        task_count=len(task_indices),
        revenue=revenue,
        service_km=service_km,
        empty_km=empty_km,
        utilization=min(1.0, busy_s / window),
    )


def fleet_stats(
    instance: MarketInstance, assignment: Mapping[str, Sequence[int]]
) -> FleetStats:
    """Fleet-wide statistics for a ``driver_id -> task list`` assignment.

    Drivers absent from the mapping are included as idle (zero workload), so
    the active fraction and the Gini coefficient describe the whole fleet.
    """
    workloads = [
        _workload(instance, driver, assignment.get(driver.driver_id, ()))
        for driver in instance.drivers
    ]
    revenues = [w.revenue for w in workloads]
    active = [w for w in workloads if w.task_count > 0]
    return FleetStats(
        workloads=tuple(workloads),
        gini_revenue=gini_coefficient(revenues),
        active_fraction=(len(active) / len(workloads)) if workloads else 0.0,
        mean_utilization=(
            float(np.mean([w.utilization for w in active])) if active else 0.0
        ),
        mean_empty_ratio=(
            float(np.mean([w.empty_ratio for w in active])) if active else 0.0
        ),
        total_service_km=float(sum(w.service_km for w in workloads)),
        total_empty_km=float(sum(w.empty_km for w in workloads)),
    )
