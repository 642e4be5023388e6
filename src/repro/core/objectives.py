"""The two objective functions of the paper.

* **Drivers' profit** (Eq. 4): total task payoff collected by the drivers
  minus the *excess* driving cost (everything they drive beyond their original
  source-to-destination plans).
* **Social welfare** (Eq. 6): the same expression with the customer valuation
  ``b_m`` in place of the price ``p_m`` — i.e. producer surplus plus consumer
  surplus.

Both objectives are evaluated over an assignment of task lists (paths) to
drivers; the per-driver arithmetic lives in
:meth:`repro.market.taskmap.DriverTaskMap.path_profit`.
"""

from __future__ import annotations

import enum
from typing import Mapping, Sequence

from ..market.instance import MarketInstance


class Objective(enum.Enum):
    """Which value each served task contributes to the objective."""

    #: Eq. (4) — each served task contributes its price ``p_m``.
    DRIVERS_PROFIT = "drivers_profit"
    #: Eq. (6) — each served task contributes the customer valuation ``b_m``.
    SOCIAL_WELFARE = "social_welfare"

    @property
    def uses_valuation(self) -> bool:
        return self is Objective.SOCIAL_WELFARE


def path_value(
    instance: MarketInstance,
    driver_id: str,
    path: Sequence[int],
    objective: Objective = Objective.DRIVERS_PROFIT,
) -> float:
    """The objective contribution of assigning task list ``path`` to a driver."""
    task_map = instance.task_map(driver_id)
    return task_map.path_profit(path, use_valuation=objective.uses_valuation)


def assignment_value(
    instance: MarketInstance,
    assignment: Mapping[str, Sequence[int]],
    objective: Objective = Objective.DRIVERS_PROFIT,
) -> float:
    """Total objective value of an assignment ``driver_id -> task list``.

    Drivers that do not appear in the mapping take no tasks and contribute 0,
    exactly as the empty path does.
    """
    total = 0.0
    for driver_id, path in assignment.items():
        total += path_value(instance, driver_id, path, objective)
    return total


def total_revenue(instance: MarketInstance, assignment: Mapping[str, Sequence[int]]) -> float:
    """Total payoff of all served tasks — the "total revenue in the market"
    plotted in Fig. 6 of the paper."""
    prices = instance.task_columns.prices
    revenue = 0.0
    for path in assignment.values():
        for m in path:
            revenue += float(prices[m])
    return revenue


def consumer_surplus(instance: MarketInstance, assignment: Mapping[str, Sequence[int]]) -> float:
    """Total customer surplus ``sum(b_m - p_m)`` over served tasks."""
    columns = instance.task_columns
    surplus = 0.0
    for path in assignment.values():
        for m in path:
            surplus += float(columns.valuations[m] - columns.prices[m])
    return surplus
