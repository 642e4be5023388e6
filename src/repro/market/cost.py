"""Travel-cost model for the market.

Section III-B of the paper defines, for driver ``n`` and tasks ``m, m'``:

* ``l_{n,m,m'}`` / ``c_{n,m,m'}`` — travel time / cost to drive *empty* from
  the destination of task ``m`` to the source of task ``m'``;
* ``l̂_{n,m}`` / ``ĉ_{n,m}`` — travel time / cost to drive the customer from
  the source to the destination of task ``m``;
* ``c_{n,0,-1}`` — the driver's original source-to-destination cost, which is
  credited back in the objective because she would drive it anyway.

The paper estimates all of these from distances and an average driving speed,
which makes them independent of the particular driver; this model therefore
exposes point-to-point estimates plus vectorised (NumPy) batch versions used
by the task-map builder to keep construction at city scale fast.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ..geo import GeoPoint, TravelModel, default_travel_model
from .task import Task


@dataclass(frozen=True, slots=True)
class Leg:
    """A single empty-drive leg between two locations."""

    time_s: float
    cost: float


class MarketCostModel:
    """Derives the ``l``/``c`` quantities of the paper from a travel model.

    Task quantities (``l̂_m`` / ``ĉ_m``) use the travel model's rates in
    effect at the task's pickup deadline (``start_deadline_ts``) — a pure
    function of the task and the model, so the streaming task maps'
    incremental-maintenance parity (incremental == rebuild, bit for bit)
    holds with no extra bookkeeping.  Empty-drive legs (the task-to-task
    arcs, :meth:`pairwise_leg_matrix` / :meth:`pairwise_legs`, and
    :meth:`leg` without a timestamp) use the base rates.  On a flat profile
    the two coincide, reproducing the paper's time-invariant model.
    """

    def __init__(self, travel_model: TravelModel | None = None) -> None:
        self.travel_model = travel_model or default_travel_model()

    # ------------------------------------------------------------------
    # point-to-point estimates (the paper's l / c)
    # ------------------------------------------------------------------
    def leg(self, origin: GeoPoint, destination: GeoPoint, ts: Optional[float] = None) -> Leg:
        """Empty-drive travel time and cost between two points at ``ts``."""
        model = self.travel_model
        distance = model.distance_km(origin, destination)
        return Leg(
            time_s=model.time_for_distance_s(distance, ts),
            cost=model.cost_for_distance(distance, ts),
        )

    def task_duration_s(self, task: Task) -> float:
        """``l̂_m`` — time to drive the customer from source to destination.

        Uses the task's recorded trace distance when available (the paper
        derives it from the trip polyline), otherwise the travel model's
        estimate between the endpoints; rates are the ones in effect at the
        task's pickup deadline.
        """
        return self.travel_model.time_for_distance_s(
            self.task_distance_km(task), task.start_deadline_ts
        )

    def task_cost(self, task: Task) -> float:
        """``ĉ_m`` — driving cost of serving the task."""
        return self.travel_model.cost_for_distance(
            self.task_distance_km(task), task.start_deadline_ts
        )

    def task_distance_km(self, task: Task) -> float:
        """The driven distance of the task (trace value or model estimate)."""
        if task.distance_km is not None:
            return task.distance_km
        return self.travel_model.distance_km(task.source, task.destination)

    def driver_direct_leg(self, source: GeoPoint, destination: GeoPoint) -> Leg:
        """``c_{n,0,-1}`` — the driver's own source-to-destination leg."""
        return self.leg(source, destination)

    # ------------------------------------------------------------------
    # vectorised batch estimates
    # ------------------------------------------------------------------
    def pairwise_leg_matrix(
        self,
        origins: Sequence[GeoPoint],
        destinations: Sequence[GeoPoint],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Times and costs for every (origin, destination) pair.

        Returns ``(times_s, costs)`` with shape ``(len(origins),
        len(destinations))``.  Distances come from the estimator's batch
        kernel, so the matrix matches the scalar :meth:`leg` values to
        floating-point round-off (historically this used an equirectangular
        approximation that could drift from the scalar path by ~0.1%).
        """
        return self._legs_for_km(self.travel_model.estimator.cross_km(origins, destinations))

    def pairwise_legs(
        self,
        origins: Sequence[GeoPoint],
        destinations: Sequence[GeoPoint],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Times and costs for each ``(origins[i], destinations[i])`` pair.

        The elementwise twin of :meth:`pairwise_leg_matrix`: entry ``i``
        equals the matrix entry of the same two points bit for bit, because
        both run the estimator's batch kernel elementwise and share one
        km -> (time, cost) conversion.
        """
        return self._legs_for_km(self.travel_model.estimator.pairwise_km(origins, destinations))

    def _legs_for_km(self, distance_km: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        times = distance_km / self.travel_model.speed_kmh * 3600.0
        costs = distance_km * self.travel_model.cost_per_km
        return times, costs
