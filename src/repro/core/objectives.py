"""The two objective functions of the paper.

* **Drivers' profit** (Eq. 4): total task payoff collected by the drivers
  minus the *excess* driving cost (everything they drive beyond their original
  source-to-destination plans).
* **Social welfare** (Eq. 6): the same expression with the customer valuation
  ``b_m`` in place of the price ``p_m`` — i.e. producer surplus plus consumer
  surplus.

Both objectives are evaluated over an assignment of task lists (paths) to
drivers; the per-driver arithmetic — and the path feasibility it presumes —
lives in :func:`repro.core.solution.evaluate_plans`, which also backs
:func:`~repro.core.solution.path_value` and
:func:`~repro.core.solution.assignment_value`.  This module holds the
objective switch and the per-task totals (revenue, consumer surplus).
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
