"""The market instance: the complete input of the optimisation problem.

A :class:`MarketInstance` bundles the ``N`` drivers, the ``M`` tasks and the
travel-cost model, lazily builds the shared task network and the per-driver
task maps, and provides the conversion from raw trace trips to priced tasks
(the pipeline of Section VI-A of the paper).  :func:`market_diameter` and
:func:`graph_summary` read the built maps: the diameter ``D`` of Theorem 1's
``1/(D+1)`` ratio and the structural summary of the merged market graph.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from ..geo import TravelModel, default_travel_model
from ..pricing import LinearPricing, PricingPolicy, RideQuote, WtpModel
from ..trace.records import TripRecord
from .cost import MarketCostModel
from .driver import Driver
from .task import Task
from .taskmap import (
    FLEET_CHUNK,
    DriverTaskMap,
    TaskColumns,
    TaskNetwork,
    build_driver_task_maps,
    build_task_columns,
    build_task_network,
)


@dataclass(frozen=True)
class MarketInstance:
    """An immutable snapshot of a two-sided ride-sharing market."""

    drivers: tuple[Driver, ...]
    tasks: tuple[Task, ...]
    cost_model: MarketCostModel

    def __post_init__(self) -> None:
        driver_ids = [d.driver_id for d in self.drivers]
        if len(set(driver_ids)) != len(driver_ids):
            raise ValueError("driver ids must be unique")
        task_ids = [t.task_id for t in self.tasks]
        if len(set(task_ids)) != len(task_ids):
            raise ValueError("task ids must be unique")

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        drivers: Iterable[Driver],
        tasks: Iterable[Task],
        cost_model: Optional[MarketCostModel] = None,
    ) -> "MarketInstance":
        """Create an instance, defaulting to the standard travel model."""
        return cls(
            drivers=tuple(drivers),
            tasks=tuple(tasks),
            cost_model=cost_model or MarketCostModel(),
        )

    # ------------------------------------------------------------------
    # sizes
    # ------------------------------------------------------------------
    @property
    def driver_count(self) -> int:
        """``N`` — the number of drivers."""
        return len(self.drivers)

    @property
    def task_count(self) -> int:
        """``M`` — the number of tasks."""
        return len(self.tasks)

    # ------------------------------------------------------------------
    # derived structures (cached)
    # ------------------------------------------------------------------
    @cached_property
    def _shared_builds(self) -> Dict[str, object]:
        """The task columns and network, shared with every instance
        :meth:`with_drivers` derives from this one: each is built once, on
        the first read by any of them."""
        return {}

    @cached_property
    def task_columns(self) -> TaskColumns:
        """The per-task columns (Eq. 1, durations, costs, prices) — all the
        online algorithms read; ``O(M)`` to build, no leg matrix."""
        shared = self._shared_builds
        if "task_columns" not in shared:
            shared["task_columns"] = build_task_columns(self.tasks, self.cost_model)
        return shared["task_columns"]

    @cached_property
    def task_network(self) -> TaskNetwork:
        """The shared driver-independent task network (columns + arcs)."""
        shared = self._shared_builds
        if "task_network" not in shared:
            shared["task_network"] = build_task_network(
                self.tasks, self.cost_model, self.task_columns
            )
        return shared["task_network"]

    @cached_property
    def task_maps(self) -> Dict[str, DriverTaskMap]:
        """Per-driver task maps keyed by driver id (Eqs. 1-3), built with the
        fleet-batched constructor (two ``N x M`` leg matrices)."""
        return build_driver_task_maps(self.drivers, self.task_network, self.cost_model)

    def task_map(self, driver_id: str) -> DriverTaskMap:
        """The task map of one driver."""
        try:
            return self.task_maps[driver_id]
        except KeyError:
            raise KeyError(f"unknown driver id {driver_id!r}") from None

    @cached_property
    def _index_by_task_id(self) -> Dict[str, int]:
        return {task.task_id: index for index, task in enumerate(self.tasks)}

    def task_index(self, task_id: str) -> int:
        """Index of a task by id."""
        try:
            return self._index_by_task_id[task_id]
        except KeyError:
            raise KeyError(f"unknown task id {task_id!r}") from None

    # ------------------------------------------------------------------
    # slicing
    # ------------------------------------------------------------------
    def with_drivers(self, drivers: Iterable[Driver]) -> "MarketInstance":
        """A new instance with a different driver fleet but the same tasks.

        Used by the driver-count sweeps of Figs. 5-9.  The two instances
        share one lazily filled cache of the task columns and the (expensive)
        task network: neither is built here, and a sweep builds each once.
        """
        new = MarketInstance(drivers=tuple(drivers), tasks=self.tasks, cost_model=self.cost_model)
        new.__dict__["_shared_builds"] = self._shared_builds
        return new

    def with_tasks(self, tasks: Iterable[Task]) -> "MarketInstance":
        """A new instance with a different task set but the same drivers."""
        return MarketInstance(drivers=self.drivers, tasks=tuple(tasks), cost_model=self.cost_model)

    def subset_tasks(self, count: int) -> "MarketInstance":
        """Keep the ``count`` earliest tasks by publish time."""
        if count < 0:
            raise ValueError("count must be non-negative")
        ordered = sorted(self.tasks, key=lambda t: (t.publish_ts, t.task_id))
        return self.with_tasks(ordered[:count])


def market_diameter(instance: MarketInstance) -> int:
    """``D`` — the maximum number of tasks on any feasible path of any driver.

    This is the quantity in Theorem 1's ``1/(D+1)`` approximation ratio: the
    longest chain of tasks a single driver could take in one working period.
    One forward pass in ``topo_order`` per fleet chunk, with unit gains, no
    leg costs and no positivity cut: ``longest[j, m]`` is the longest chain
    driver ``j`` can take that ends at task ``m`` (0 while the driver's source
    cannot reach ``m``), seeded with 1 on the driver's entry tasks (a subset
    of its exit tasks) and pushed along the arcs into its exit tasks.
    """
    network = instance.task_network
    maps = list(instance.task_maps.values())
    best = 0
    for lo in range(0, len(maps), FLEET_CHUNK):
        chunk = maps[lo : lo + FLEET_CHUNK]
        exit_ok = np.array([tm.exit_ok for tm in chunk])
        longest = np.array([tm.entry_ok for tm in chunk], dtype=np.int64)  # (chunk, M)
        for m in network.topo_order.tolist():
            succ = network.successors[m]
            if succ.size == 0:
                continue
            reach = longest[:, m]
            live = reach > 0
            if not live.any():
                continue
            pushed = np.where(exit_ok[:, succ] & live[:, None], reach[:, None] + 1, 0)
            longest[:, succ] = np.maximum(longest[:, succ], pushed)
        best = max(best, int(longest.max(initial=0)))
    return best


def graph_summary(instance: MarketInstance) -> Dict[str, float]:
    """Summary statistics of the merged market graph (for reports/examples)."""
    network = instance.task_network
    total_entry_arcs = sum(int(tm.entry_ok.sum()) for tm in instance.task_maps.values())
    total_exit_arcs = sum(int(tm.exit_ok.sum()) for tm in instance.task_maps.values())
    return {
        "drivers": float(instance.driver_count),
        "tasks": float(instance.task_count),
        "servable_tasks": float(int(network.servable.sum())),
        "task_to_task_arcs": float(network.arc_head.size),
        "driver_entry_arcs": float(total_entry_arcs),
        "driver_exit_arcs": float(total_exit_arcs),
        "diameter": float(market_diameter(instance)),
    }


def tasks_from_trips(
    trips: Sequence[TripRecord],
    pricing: Optional[PricingPolicy] = None,
    wtp_model: Optional[WtpModel] = None,
    publish_lead_s: float = 600.0,
    seed: int = 11,
) -> List[Task]:
    """Convert trace trips into market tasks (the Section VI-A pipeline).

    Each trip becomes a task whose pickup deadline is the trip's recorded
    start time, whose drop-off deadline is its recorded end time, and whose
    publish time precedes the pickup deadline by ``publish_lead_s`` (riders
    request some minutes ahead; ten minutes by default, which also bounds how
    far away an online dispatcher can pull a driver from).  The price comes
    from ``pricing`` (Eq. 15 by default) and, when a ``wtp_model`` is given,
    the customer valuation is sampled from it.
    """
    if publish_lead_s < 0:
        raise ValueError("publish_lead_s must be non-negative")
    policy = pricing or LinearPricing()
    rng = random.Random(seed)
    tasks: List[Task] = []
    for trip in trips:
        if trip.duration_s <= 0:
            continue
        quote = RideQuote(
            origin=trip.origin,
            destination=trip.destination,
            distance_km=trip.distance_km,
            duration_s=trip.duration_s,
            request_ts=trip.start_ts - publish_lead_s,
        )
        price = policy.price(quote)
        wtp = wtp_model.valuation(quote, price, rng) if wtp_model is not None else None
        tasks.append(
            Task(
                task_id=f"task-{trip.trip_id}",
                publish_ts=trip.start_ts - publish_lead_s,
                source=trip.origin,
                destination=trip.destination,
                start_deadline_ts=trip.start_ts,
                end_deadline_ts=trip.end_ts,
                price=price,
                wtp=wtp,
                distance_km=trip.distance_km,
            )
        )
    return tasks


def market_from_trace(
    trips: Sequence[TripRecord],
    drivers: Iterable[Driver],
    pricing: Optional[PricingPolicy] = None,
    wtp_model: Optional[WtpModel] = None,
    travel_model: Optional[TravelModel] = None,
) -> MarketInstance:
    """One-call construction of a market instance from a trip trace."""
    cost_model = MarketCostModel(travel_model or default_travel_model())
    tasks = tasks_from_trips(trips, pricing=pricing, wtp_model=wtp_model)
    return MarketInstance.create(drivers=drivers, tasks=tasks, cost_model=cost_model)
