"""Runtime driver state for the online simulator.

Algorithms 3 and 4 of the paper track, for every driver, whether she is
*locked* (committed to a task she has not finished yet), her *last task*, and
where/when she will next be free.  :class:`DriverState` is that record, and
:meth:`DriverState.settle` closes it into the driver's
:class:`~repro.core.solution.DriverPlan` when the stream ends;
:class:`Candidate` is one entry of the candidate set built for an arriving
task, annotated with everything the dispatch rules need (arrival time at the
pickup and the marginal value ``delta_{n,m}`` of Eq. 14).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

from ..core.solution import DriverPlan
from ..geo import GeoPoint
from ..market.cost import MarketCostModel
from ..market.driver import Driver


@dataclass(slots=True)
class DriverState:
    """Mutable per-driver state during an online simulation."""

    driver: Driver
    #: Where the driver will be once she has finished everything assigned so far.
    location: GeoPoint
    #: When she is free at ``location`` (never before her shift start).
    free_at: float
    #: Whether she currently has an unfinished assigned task.
    locked: bool = False
    #: Index of her last assigned task (``None`` maps to the paper's "last task 0").
    last_task: Optional[int] = None
    #: All task indices assigned to her, in service order.
    served: List[int] = field(default_factory=list)
    #: When the driver reached each served task's pickup point, aligned
    #: entry-for-entry with ``served`` (NaN when a caller did not supply an
    #: arrival, so later entries never shift).  Fed by the simulators'
    #: commit paths; the wait-time metrics (publish -> driver arrival) are
    #: derived from these at settlement.  Under trace-replay semantics the
    #: *ride* then starts at the recorded start, but the customer's wait
    #: for a car ends here.
    arrival_times: List[float] = field(default_factory=list)
    #: Profit accumulated so far: task payoffs minus the empty-drive and
    #: in-task costs actually incurred (the driver's own final leg home and
    #: the direct-cost credit are settled at the end of the simulation).
    running_profit: float = 0.0

    @classmethod
    def fresh(cls, driver: Driver) -> "DriverState":
        """The initial state: unlocked, waiting at her source until her shift starts."""
        return cls(driver=driver, location=driver.source, free_at=driver.start_ts)

    @property
    def task_count(self) -> int:
        return len(self.served)

    def assign(
        self,
        task_index: int,
        pickup_location: GeoPoint,
        dropoff_location: GeoPoint,
        dropoff_ts: float,
        profit_delta: float,
        arrival_ts: Optional[float] = None,
    ) -> None:
        """Commit a task to this driver and advance her state.

        ``arrival_ts`` records when the driver reaches the pickup point;
        callers that do not track it may omit it — a NaN keeps
        ``arrival_times`` aligned with ``served`` and the wait-time metrics
        skip that assignment.
        """
        self.served.append(task_index)
        self.arrival_times.append(math.nan if arrival_ts is None else arrival_ts)
        self.last_task = task_index
        self.location = dropoff_location
        self.free_at = dropoff_ts
        self.locked = True
        self.running_profit += profit_delta

    def release_if_done(self, now_ts: float) -> None:
        """Unlock the driver once the current time passes her busy-until time."""
        if self.locked and now_ts >= self.free_at:
            self.locked = False

    def settle(self, cost_model: MarketCostModel) -> DriverPlan:
        """Close the driver's books at the end of the stream: a driver who
        worked pays her final leg home and is credited the drive she would
        have made anyway (Eq. 4)."""
        profit = self.running_profit
        if self.served:
            final_leg = cost_model.leg(self.location, self.driver.destination)
            direct_leg = cost_model.driver_direct_leg(
                self.driver.source, self.driver.destination
            )
            profit = profit - final_leg.cost + direct_leg.cost
        return DriverPlan(
            driver_id=self.driver.driver_id,
            task_indices=tuple(self.served),
            profit=profit,
            arrival_times=tuple(self.arrival_times),
        )


@dataclass(frozen=True, slots=True)
class Candidate:
    """One feasible driver for an arriving task."""

    state: DriverState
    #: When the driver could reach the task's pickup point.
    arrival_ts: float
    #: When she would drop the customer off.
    dropoff_ts: float
    #: Empty-drive cost from her current position to the pickup.
    approach_cost: float
    #: Marginal value ``delta_{n,m}`` of Eq. (14).
    marginal_value: float

    @property
    def driver_id(self) -> str:
        return self.state.driver.driver_id
