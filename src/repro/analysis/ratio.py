"""Performance ratios against the theoretical upper bound (Fig. 5).

Section VI-B of the paper: "We use the offline relaxation results from Z*_f
as the theoretical upper bound ... The performance ratio is Z*_f divided by
the drivers' total profits achieved by the algorithms we design."  For small
instances the exact optimum ``Z*`` can be used instead.

Note the paper's ratio is *bound / achieved* (so it is >= 1 and smaller is
better).  :class:`PerformanceRatio` stores both that value and its inverse
(achieved / bound, in ``[0, 1]``), because the inverse is what the
approximation guarantee ``1/(D+1)`` speaks about.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Optional

from ..core.objectives import Objective
from ..market.instance import MarketInstance
from ..offline.flow import exact_optimum
from ..offline.formulation import build_arc_flow_model
from ..offline.lagrangian import lagrangian_bound


class BoundKind(enum.Enum):
    """Which upper bound the ratio is computed against."""

    #: The LP relaxation ``Z*_f`` (the paper's default).
    LP_RELAXATION = "lp_relaxation"
    #: The exact optimum ``Z*`` from the MILP solver (small instances).
    EXACT = "exact"
    #: The Lagrangian bound (scalable alternative for large instances).
    LAGRANGIAN = "lagrangian"


@dataclass(frozen=True, slots=True)
class PerformanceRatio:
    """An achieved objective value compared against an upper bound."""

    algorithm: str
    achieved: float
    upper_bound: float
    bound_kind: BoundKind

    @property
    def ratio(self) -> float:
        """The paper's ratio: upper bound / achieved (>= 1, smaller is better).

        Infinite when the algorithm achieved nothing but the bound is
        positive; defined as 1 when both are (numerically) zero.
        """
        if abs(self.upper_bound) < 1e-12 and abs(self.achieved) < 1e-12:
            return 1.0
        if self.achieved <= 0:
            return float("inf")
        return self.upper_bound / self.achieved

    @property
    def efficiency(self) -> float:
        """achieved / upper bound, clipped to [0, 1] for floating-point noise."""
        if self.upper_bound <= 0:
            return 1.0 if self.achieved <= 0 else float("inf")
        return max(0.0, min(1.0, self.achieved / self.upper_bound))


def compute_upper_bound(
    instance: MarketInstance,
    bound_kind: BoundKind = BoundKind.LP_RELAXATION,
    objective: Objective = Objective.DRIVERS_PROFIT,
    lagrangian_iterations: int = 30,
) -> float:
    """Compute the requested upper bound for an instance.

    This is the one public entry to the LP relaxation ``Z*_f``: the arc-flow
    model's LP optimum, with the rationality rows (5b) kept.
    """
    if bound_kind is BoundKind.LP_RELAXATION:
        return build_arc_flow_model(instance, objective=objective).solve().upper_bound
    if bound_kind is BoundKind.EXACT:
        return exact_optimum(instance, objective=objective).optimum
    if bound_kind is BoundKind.LAGRANGIAN:
        return lagrangian_bound(
            instance, objective=objective, iterations=lagrangian_iterations
        ).upper_bound
    raise ValueError(f"unsupported bound kind {bound_kind!r}")


def performance_ratios(
    achieved_by_algorithm: Dict[str, float],
    upper_bound: float,
    bound_kind: BoundKind = BoundKind.LP_RELAXATION,
) -> Dict[str, PerformanceRatio]:
    """Wrap a set of achieved values against one shared upper bound."""
    return {
        name: PerformanceRatio(
            algorithm=name, achieved=value, upper_bound=upper_bound, bound_kind=bound_kind
        )
        for name, value in achieved_by_algorithm.items()
    }
