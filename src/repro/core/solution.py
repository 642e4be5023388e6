"""Solution representation, plan evaluation and feasibility validation.

A :class:`MarketSolution` records which task list each driver was assigned,
regardless of which algorithm produced it — the offline greedy, the exact
solver, the online simulators and the sharded merges all return this type,
which is what makes head-to-head evaluation straightforward.  An online plan
also records when the driver reached each pickup, and an online solution the
orders it rejected, so one ``summary()`` carries the revenue, serve-rate and
wait metrics of every algorithm.

Online plans are accounted from the drives actually simulated, not read off
a task map: a driver who finishes a ride before its drop-off deadline may
legitimately chain a task the deadline-based task map rules out (Section V
of the paper), so a simulator's plan carries the profit it simulated.

Plans are priced and checked by :func:`evaluate_plans` from the legs they
actually drive, never from a task map: scoring a hundred short paths must not
build the ``M x M`` task network and the ``N x M`` fleet maps that searching
for them needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from ..geo.batch import coord_array
from ..market.driver import Driver
from ..market.instance import MarketInstance
from .objectives import Objective, consumer_surplus, total_revenue


class InfeasibleSolutionError(ValueError):
    """Raised by :meth:`MarketSolution.validate` when a solution violates the
    constraints of the optimisation problem (Eqs. 5a-5h)."""


@dataclass(frozen=True, slots=True)
class DriverPlan:
    """One driver's assigned task list and its objective contribution."""

    driver_id: str
    task_indices: Tuple[int, ...]
    profit: float
    #: When the driver reached each served task's pickup point, aligned
    #: entry-for-entry with ``task_indices`` (NaN for untracked commits);
    #: empty when the producing algorithm does not simulate arrivals at all
    #: (the offline solvers).  The wait-time metrics skip untracked entries
    #: either way.
    arrival_times: Tuple[float, ...] = ()

    @property
    def task_count(self) -> int:
        return len(self.task_indices)


def evaluate_plans(
    instance: MarketInstance,
    plans: Sequence[Tuple[Driver, Sequence[int]]],
    objective: Objective = Objective.DRIVERS_PROFIT,
) -> List[Optional[float]]:
    """The Eq. (4) profit of each ``(driver, task list)`` pair, or ``None``
    where the list is not a feasible path in the driver's task map.

    Every plan's legs are gathered and priced with one elementwise batch per
    leg kind (source, task-to-task, sink), then checked against Eqs. (1)-(3)
    with the tolerances the task-map builders use: a task list is feasible
    when its indices are distinct tasks in ``[0, M)``, the driver reaches its
    first pickup in time, each pickup is reachable from the previous drop-off
    and the driver can get home in time after *every* task (the task map's
    ``exit_ok`` holds on each node of a path, not just the last).  Profits
    are summed term by term in the task map's order, so they equal the
    profit of the same path read off the driver's task map bit for bit
    (parity contract 20).  The empty list is feasible and worth exactly 0.
    """
    task_count = instance.task_count
    profits: List[Optional[float]] = [None] * len(plans)
    positions: List[int] = []
    drivers: List[Driver] = []
    paths: List[Sequence[int]] = []
    for position, (driver, path) in enumerate(plans):
        if len(path) == 0:
            profits[position] = 0.0
        elif len(set(path)) == len(path) and all(0 <= m < task_count for m in path):
            positions.append(position)
            drivers.append(driver)
            paths.append(path)
    if not paths:
        return profits

    columns = instance.task_columns
    cost_model = instance.cost_model
    lengths = np.array([len(path) for path in paths])
    ends = np.cumsum(lengths)
    starts = ends - lengths
    tasks = np.fromiter(chain.from_iterable(paths), dtype=np.intp, count=int(ends[-1]))
    owner = np.repeat(np.arange(len(paths)), lengths)
    tail_at = np.delete(np.arange(tasks.size), ends - 1)  # every task but each plan's last
    firsts, tails, heads = tasks[starts], tasks[tail_at], tasks[tail_at + 1]

    source_times, source_costs = cost_model.pairwise_legs(
        coord_array([d.source for d in drivers]), columns.sources[firsts]
    )
    sink_times, sink_costs = cost_model.pairwise_legs(
        columns.destinations[tasks], coord_array([d.destination for d in drivers])[owner]
    )
    chain_times, chain_costs = cost_model.pairwise_legs(
        columns.destinations[tails], columns.sources[heads]
    )

    # Eqs. (1)-(3), exactly as build_task_network / build_driver_task_maps
    # state them, on exactly these legs.
    start_ts = np.array([d.start_ts for d in drivers], dtype=float)
    end_ts = np.array([d.end_ts for d in drivers], dtype=float)
    exit_ok = columns.servable[tasks] & (
        sink_times <= (end_ts[owner] - columns.end_deadlines[tasks]) + 1e-9
    )
    arc_ok = chain_times <= (columns.start_deadlines[heads] - columns.end_deadlines[tails]) + 1e-9
    feasible = source_times <= (columns.start_deadlines[firsts] - start_ts) + 1e-9
    feasible[owner[~exit_ok]] = False
    feasible[owner[tail_at][~arc_ok]] = False

    values = columns.valuations if objective.uses_valuation else columns.prices
    gains = (values[tasks] - columns.service_costs[tasks]).tolist()
    source_costs, sink_costs, chain_costs = (
        source_costs.tolist(), sink_costs.tolist(), chain_costs.tolist()
    )
    for plan in np.nonzero(feasible)[0].tolist():
        lo, hi = int(starts[plan]), int(ends[plan])
        driver = drivers[plan]
        total = 0.0
        for gain in gains[lo:hi]:
            total += gain
        total -= source_costs[plan]
        # Plan p's task-to-task legs follow the p earlier plans' legs, one
        # fewer than their tasks each.
        for cost in chain_costs[lo - plan : hi - plan - 1]:
            total -= cost
        total -= sink_costs[hi - 1]
        total += cost_model.driver_direct_leg(driver.source, driver.destination).cost
        profits[positions[plan]] = total
    return profits


def _fleet(instance: MarketInstance) -> Dict[str, Driver]:
    return {driver.driver_id: driver for driver in instance.drivers}


def path_value(
    instance: MarketInstance,
    driver_id: str,
    path: Sequence[int],
    objective: Objective = Objective.DRIVERS_PROFIT,
) -> float:
    """The objective contribution of assigning task list ``path`` to a driver.

    Raises ``KeyError`` for an unknown driver and ``ValueError`` when the
    list is not a feasible path in the driver's task map.
    """
    return assignment_value(instance, {driver_id: path}, objective)


def assignment_value(
    instance: MarketInstance,
    assignment: Mapping[str, Sequence[int]],
    objective: Objective = Objective.DRIVERS_PROFIT,
) -> float:
    """Total objective value of an assignment ``driver_id -> task list``.

    Drivers that do not appear in the mapping take no tasks and contribute 0,
    exactly as the empty path does.  Raises like :func:`path_value`.
    """
    fleet = _fleet(instance)
    plans = []
    for driver_id, path in assignment.items():
        if driver_id not in fleet:
            raise KeyError(f"unknown driver id {driver_id!r}")
        plans.append((fleet[driver_id], path))
    total = 0.0
    for (driver, path), profit in zip(plans, evaluate_plans(instance, plans, objective)):
        if profit is None:
            raise ValueError(
                f"driver {driver.driver_id!r}: task list {tuple(path)} is not a feasible path"
            )
        total += profit
    return total


@dataclass(frozen=True)
class MarketSolution:
    """An assignment of node-disjoint task lists to drivers."""

    instance: MarketInstance
    plans: Tuple[DriverPlan, ...]
    objective: Objective = Objective.DRIVERS_PROFIT
    #: Orders an online run could not serve (empty for the offline solvers).
    rejected_tasks: Tuple[int, ...] = ()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_assignment(
        cls,
        instance: MarketInstance,
        assignment: Mapping[str, Sequence[int]],
        objective: Objective = Objective.DRIVERS_PROFIT,
    ) -> "MarketSolution":
        """Build a solution from a ``driver_id -> task index list`` mapping,
        pricing each driver's plan with :func:`evaluate_plans`.

        Construction is lenient: a task list that is not a feasible path in
        the driver's task map — out-of-range indices included — is stored
        with a profit of 0 and flagged later by :meth:`validate`, so callers
        can always build a solution object first and decide how to handle
        infeasibility afterwards.
        """
        pairs = [
            (driver, tuple(assignment.get(driver.driver_id, ()))) for driver in instance.drivers
        ]
        plans = tuple(
            DriverPlan(driver.driver_id, path, 0.0 if profit is None else profit)
            for (driver, path), profit in zip(pairs, evaluate_plans(instance, pairs, objective))
        )
        return cls(instance=instance, plans=plans, objective=objective)

    @classmethod
    def empty(
        cls, instance: MarketInstance, objective: Objective = Objective.DRIVERS_PROFIT
    ) -> "MarketSolution":
        """The all-drivers-idle solution (objective value 0)."""
        return cls.from_assignment(instance, {}, objective)

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    def plan_for(self, driver_id: str) -> DriverPlan:
        for plan in self.plans:
            if plan.driver_id == driver_id:
                return plan
        raise KeyError(f"no plan for driver {driver_id!r}")

    def assignment(self) -> Dict[str, Tuple[int, ...]]:
        """The underlying ``driver_id -> task indices`` mapping (non-empty plans)."""
        return {p.driver_id: p.task_indices for p in self.plans if p.task_indices}

    def served_tasks(self) -> Set[int]:
        """Indices of all tasks served by some driver."""
        served: Set[int] = set()
        for plan in self.plans:
            served.update(plan.task_indices)
        return served

    def iter_nonempty_plans(self) -> Iterator[DriverPlan]:
        for plan in self.plans:
            if plan.task_indices:
                yield plan

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    @property
    def total_value(self) -> float:
        """The objective value (drivers' total profit, or social welfare)."""
        return sum(plan.profit for plan in self.plans)

    @property
    def served_count(self) -> int:
        return len(self.served_tasks())

    @property
    def serve_rate(self) -> float:
        """Fraction of tasks served (Fig. 7).  1.0 for an empty task set."""
        if self.instance.task_count == 0:
            return 1.0
        return self.served_count / self.instance.task_count

    @property
    def total_revenue(self) -> float:
        """Total payoff of served tasks (Fig. 6)."""
        return total_revenue(self.instance, self.assignment())

    @property
    def consumer_surplus(self) -> float:
        return consumer_surplus(self.instance, self.assignment())

    @property
    def active_driver_count(self) -> int:
        """Drivers with at least one task."""
        return sum(1 for _ in self.iter_nonempty_plans())

    def revenue_per_driver(self) -> float:
        """Average revenue per driver in the fleet (Fig. 8).

        The denominator is the fleet size (not just active drivers), matching
        the congestion story of the paper: adding drivers dilutes everyone's
        income.
        """
        if self.instance.driver_count == 0:
            return 0.0
        return self.total_revenue / self.instance.driver_count

    def tasks_per_driver(self) -> float:
        """Average number of tasks served per driver in the fleet (Fig. 9)."""
        if self.instance.driver_count == 0:
            return 0.0
        return self.served_count / self.instance.driver_count

    # ------------------------------------------------------------------
    # wait-time metrics (publish -> pickup)
    # ------------------------------------------------------------------
    def wait_times_s(self) -> Dict[int, float]:
        """Per served task: seconds from publication until a driver arrived
        at the pickup point.

        Only tasks whose plan tracked an arrival appear (all of them for
        the built-in simulators, none for the offline solvers).  This is the
        latency half of the dispatch quality story that serve rate and
        revenue do not show — under trace-replay semantics the *ride* then
        starts at the recorded start time, but the customer's wait for a car
        ends at arrival — and the per-scenario comparison the scenario suite
        reports.
        """
        tasks = self.instance.tasks
        waits: Dict[int, float] = {}
        for plan in self.plans:
            for m, arrival_ts in zip(plan.task_indices, plan.arrival_times):
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

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check every constraint of the optimisation problem.

        * every task index names a task of the instance, in ``[0, M)``;
        * each driver's task list is a feasible path in her task map
          (flow-conservation constraints 5c-5f), checked by
          :func:`evaluate_plans`;
        * no task is served by more than one driver (constraint 5a);
        * every driver's profit is non-negative (individual rationality, 5b);
        * every served task is publishable (customer rationality, 7a).

        Raises
        ------
        InfeasibleSolutionError
            With a message naming the violated constraint.
        """
        fleet = _fleet(self.instance)
        task_count = self.instance.task_count
        known = [(fleet[p.driver_id], p.task_indices) for p in self.plans if p.driver_id in fleet]
        profits = iter(evaluate_plans(self.instance, known, self.objective))
        seen: Dict[int, str] = {}
        for plan in self.plans:
            if plan.driver_id not in fleet:
                raise InfeasibleSolutionError(f"unknown driver {plan.driver_id!r}")
            for m in plan.task_indices:
                if not 0 <= m < task_count:
                    raise InfeasibleSolutionError(
                        f"driver {plan.driver_id!r}: task index {m} is outside [0, {task_count})"
                    )
            if next(profits) is None:
                raise InfeasibleSolutionError(
                    f"driver {plan.driver_id!r}: task list {plan.task_indices} is not a "
                    "feasible path in her task map"
                )
            for m in plan.task_indices:
                if m in seen:
                    raise InfeasibleSolutionError(
                        f"task {m} assigned to both {seen[m]!r} and {plan.driver_id!r}"
                    )
                seen[m] = plan.driver_id
                if not self.instance.tasks[m].is_publishable:
                    raise InfeasibleSolutionError(
                        f"task {m} is not publishable (price exceeds customer valuation)"
                    )
            if plan.task_indices and plan.profit < -1e-6:
                raise InfeasibleSolutionError(
                    f"driver {plan.driver_id!r} has negative profit {plan.profit:.4f} "
                    "(individual rationality violated)"
                )

    def is_feasible(self) -> bool:
        """``True`` when :meth:`validate` passes."""
        try:
            self.validate()
        except InfeasibleSolutionError:
            return False
        return True

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, float]:
        """A flat metric dictionary for reports and benchmarks."""
        return {
            "total_value": self.total_value,
            "total_revenue": self.total_revenue,
            "served_count": float(self.served_count),
            "serve_rate": self.serve_rate,
            "revenue_per_driver": self.revenue_per_driver(),
            "tasks_per_driver": self.tasks_per_driver(),
            "active_drivers": float(self.active_driver_count),
            "consumer_surplus": self.consumer_surplus,
            "rejected_tasks": float(len(self.rejected_tasks)),
            "mean_wait_s": self.mean_wait_s,
        }
