"""LP-relaxation upper bound ``Z*_f`` (Section III-E).

Dropping the integrality constraints (8a)-(8b) turns the problem into a
linear program that is solvable in polynomial time, and its optimum ``Z*_f``
satisfies ``Z*_f >= Z* = OPT``.  The paper uses ``Z*_f`` as the theoretical
upper bound against which the performance ratios of Fig. 5 are computed.

The LP is solved with HiGHS
(:meth:`~repro.offline.formulation.ArcFlowModel.solve_lp`).  For very
large instances the LP itself becomes the bottleneck; the scalable
alternative is the Lagrangian bound in :mod:`repro.offline.lagrangian`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..core.objectives import Objective
from ..market.instance import MarketInstance
from .formulation import ArcFlowModel, build_arc_flow_model


class RelaxationError(RuntimeError):
    """Raised when the LP solver fails to return an optimal solution."""


@dataclass(frozen=True)
class RelaxationResult:
    """The LP-relaxation bound and its raw solver output."""

    upper_bound: float
    model: ArcFlowModel
    arc_values: np.ndarray
    solver_status: str

    @property
    def fractional_arc_count(self) -> int:
        """How many arc variables are strictly fractional (diagnostic for how
        far the LP optimum is from being integral)."""
        values = self.arc_values
        return int(np.sum((values > 1e-6) & (values < 1.0 - 1e-6)))


def lp_relaxation_bound(
    instance: MarketInstance,
    objective: Objective = Objective.DRIVERS_PROFIT,
    include_rationality: bool = True,
    model: Optional[ArcFlowModel] = None,
) -> RelaxationResult:
    """Compute ``Z*_f`` for ``instance``.

    Parameters
    ----------
    instance:
        The market instance.
    objective:
        Drivers' profit (Eq. 4) or social welfare (Eq. 6).
    include_rationality:
        Keep the per-driver individual-rationality constraint (5b) in the
        relaxation; the bound is valid either way.
    model:
        A pre-built arc-flow model to reuse (must match ``instance`` and
        ``objective``).
    """
    arc_model = model or build_arc_flow_model(
        instance, objective=objective, include_rationality=include_rationality
    )
    if arc_model.variable_count == 0:
        return RelaxationResult(
            upper_bound=0.0,
            model=arc_model,
            arc_values=np.zeros(0),
            solver_status="empty",
        )

    upper_bound, arc_values, message = arc_model.solve_lp()
    if upper_bound is None:
        raise RelaxationError(f"LP relaxation failed: {message}")
    return RelaxationResult(
        upper_bound=upper_bound,
        model=arc_model,
        arc_values=arc_values,
        solver_status=message,
    )
