"""Result of an online simulation.

Produces the same metric vocabulary as :class:`repro.core.MarketSolution`
(total value, revenue, serve rate, per-driver averages) so that online and
offline algorithms can be compared side by side in the Fig. 5-9 experiments.

Online plans are *not* converted into offline task-map paths: a driver who
finishes a ride earlier than its drop-off deadline may legitimately chain a
task that the deadline-based task map rules out (Section V of the paper), so
profits are accounted from the drives actually simulated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

from ..market.cost import MarketCostModel
from ..market.instance import MarketInstance
from .state import DriverState


@dataclass(frozen=True, slots=True)
class OnlineDriverRecord:
    """One driver's final record after an online simulation."""

    driver_id: str
    task_indices: Tuple[int, ...]
    profit: float
    #: When the driver reached each served task's pickup point, aligned
    #: entry-for-entry with ``task_indices`` (NaN for untracked commits);
    #: empty when the producing simulator does not track arrivals at all.
    #: The wait-time metrics skip untracked entries either way.
    arrival_times: Tuple[float, ...] = ()

    @classmethod
    def settle(cls, state: DriverState, cost_model: MarketCostModel) -> "OnlineDriverRecord":
        """Close a driver's books at the end of the stream: a driver who
        worked pays her final leg home and is credited the drive she would
        have made anyway (Eq. 4)."""
        profit = state.running_profit
        if state.served:
            final_leg = cost_model.leg(state.location, state.driver.destination)
            direct_leg = cost_model.driver_direct_leg(
                state.driver.source, state.driver.destination
            )
            profit = profit - final_leg.cost + direct_leg.cost
        return cls(
            driver_id=state.driver.driver_id,
            task_indices=tuple(state.served),
            profit=profit,
            arrival_times=tuple(state.arrival_times),
        )

    @property
    def task_count(self) -> int:
        return len(self.task_indices)


@dataclass(frozen=True)
class OnlineOutcome:
    """Aggregate outcome of one online simulation run."""

    instance: MarketInstance
    records: Tuple[OnlineDriverRecord, ...]
    rejected_tasks: Tuple[int, ...]
    dispatcher_name: str

    # ------------------------------------------------------------------
    # assignment views
    # ------------------------------------------------------------------
    def assignment(self) -> Dict[str, Tuple[int, ...]]:
        """``driver_id -> served task indices`` (drivers with work only)."""
        return {r.driver_id: r.task_indices for r in self.records if r.task_indices}

    def served_tasks(self) -> set[int]:
        served: set[int] = set()
        for record in self.records:
            served.update(record.task_indices)
        return served

    def record_for(self, driver_id: str) -> OnlineDriverRecord:
        for record in self.records:
            if record.driver_id == driver_id:
                return record
        raise KeyError(f"no record for driver {driver_id!r}")

    # ------------------------------------------------------------------
    # metrics (same vocabulary as MarketSolution)
    # ------------------------------------------------------------------
    @property
    def total_value(self) -> float:
        """Drivers' total profit achieved by the online algorithm."""
        return sum(record.profit for record in self.records)

    @property
    def served_count(self) -> int:
        return len(self.served_tasks())

    @property
    def serve_rate(self) -> float:
        if self.instance.task_count == 0:
            return 1.0
        return self.served_count / self.instance.task_count

    @property
    def total_revenue(self) -> float:
        prices = self.instance.task_columns.prices
        return float(sum(prices[m] for m in self.served_tasks()))

    @property
    def active_driver_count(self) -> int:
        return sum(1 for record in self.records if record.task_indices)

    def revenue_per_driver(self) -> float:
        if self.instance.driver_count == 0:
            return 0.0
        return self.total_revenue / self.instance.driver_count

    # ------------------------------------------------------------------
    # wait-time metrics (publish -> pickup)
    # ------------------------------------------------------------------
    def wait_times_s(self) -> Dict[int, float]:
        """Per served task: seconds from publication until a driver arrived
        at the pickup point.

        Only tasks whose record tracked an arrival appear (all of them for
        the built-in simulators).  This is the latency half of the dispatch
        quality story that serve rate and revenue do not show — under
        trace-replay semantics the *ride* then starts at the recorded start
        time, but the customer's wait for a car ends at arrival — and the
        per-scenario comparison the scenario suite reports.
        """
        tasks = self.instance.tasks
        waits: Dict[int, float] = {}
        for record in self.records:
            for m, arrival_ts in zip(record.task_indices, record.arrival_times):
                if not math.isnan(arrival_ts):
                    waits[m] = arrival_ts - tasks[m].publish_ts
        return waits

    @property
    def total_wait_s(self) -> float:
        """Sum of all tracked publish->arrival waits (deterministic: summed
        in driver order — dict insertion order — so shard merges reproduce
        it bit for bit)."""
        return sum(self.wait_times_s().values())

    @property
    def mean_wait_s(self) -> float:
        """Mean publish->arrival wait over the tracked served tasks."""
        waits = self.wait_times_s()
        if not waits:
            return 0.0
        return sum(waits.values()) / len(waits)

    def tasks_per_driver(self) -> float:
        if self.instance.driver_count == 0:
            return 0.0
        return self.served_count / self.instance.driver_count

    def summary(self) -> Dict[str, float]:
        """Flat metric dictionary (same keys as ``MarketSolution.summary``)."""
        return {
            "total_value": self.total_value,
            "total_revenue": self.total_revenue,
            "served_count": float(self.served_count),
            "serve_rate": self.serve_rate,
            "revenue_per_driver": self.revenue_per_driver(),
            "tasks_per_driver": self.tasks_per_driver(),
            "active_drivers": float(self.active_driver_count),
            "rejected_tasks": float(len(self.rejected_tasks)),
            "mean_wait_s": self.mean_wait_s,
        }
