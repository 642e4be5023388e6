"""Lagrangian-relaxation upper bound.

The LP relaxation ``Z*_f``
(:meth:`repro.offline.formulation.ArcFlowModel.solve`) is exact but its size
grows with (drivers x task-map arcs), which makes it the bottleneck for
city-scale sweeps.  Dualising the coupling constraint (5a) — "each task is
served by at most one driver" — with multipliers ``λ_m >= 0`` decomposes the
problem into independent per-driver max-profit-path problems:

    L(λ) = Σ_m λ_m + Σ_n  max_path ( Σ_{m in path} (gain_m - λ_m) - legs )

For every ``λ >= 0``, ``L(λ) >= Z*`` (weak duality), so the best value found
during a projected-subgradient descent is a valid upper bound that only needs
the fast DAG dynamic program per driver per iteration.  By LP duality the
infimum over ``λ`` equals ``Z*_f`` when the per-driver subproblems are
integral (they are: each is a shortest/longest path problem), so with enough
iterations this bound converges towards the same value the LP reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..core.objectives import Objective
from ..market.instance import MarketInstance
from .dag import best_path


@dataclass(frozen=True, slots=True)
class LagrangianResult:
    """Best (lowest) Lagrangian upper bound observed and its trajectory."""

    upper_bound: float
    iterations: int
    bounds_per_iteration: tuple[float, ...]
    multipliers: np.ndarray


def lagrangian_bound(
    instance: MarketInstance,
    objective: Objective = Objective.DRIVERS_PROFIT,
    iterations: int = 30,
    initial_step: float = 1.0,
    seed_multipliers: Optional[np.ndarray] = None,
    target_value: Optional[float] = None,
) -> LagrangianResult:
    """Projected-subgradient Lagrangian bound on the optimum.

    Parameters
    ----------
    iterations:
        Subgradient steps; each step costs one max-profit-path DP per driver.
    initial_step:
        Step size of the first iteration; decays as ``1/sqrt(k)``.  Ignored
        when ``target_value`` is given.
    seed_multipliers:
        Optional warm-start multipliers (length ``task_count``).
    target_value:
        A known lower bound on the optimum (e.g. the greedy solution's
        value).  When provided, the Polyak step rule
        ``step = (L(λ) - target) / ||g||²`` is used, which converges much
        faster than the plain diminishing-step rule.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    task_count = instance.task_count
    network = instance.task_network
    base_values = network.valuations if objective.uses_valuation else network.prices

    if seed_multipliers is not None:
        multipliers = np.array(seed_multipliers, dtype=float)
        if multipliers.shape != (task_count,):
            raise ValueError("seed_multipliers has the wrong shape")
        if (multipliers < 0).any():
            raise ValueError("multipliers must be non-negative")
    else:
        multipliers = np.zeros(task_count)

    task_maps = instance.task_maps
    best_bound = np.inf
    best_multipliers = multipliers.copy()
    trajectory: List[float] = []

    for k in range(1, iterations + 1):
        usage = np.zeros(task_count)
        subproblem_total = 0.0
        # Shift the task values by the multipliers without touching the
        # shared network: the DP takes the adjusted vector explicitly.
        adjusted = base_values - multipliers
        for task_map in task_maps.values():
            result = best_path(task_map, values=adjusted)
            subproblem_total += result.profit
            for m in result.path:
                usage[m] += 1.0
        bound = float(multipliers.sum() + subproblem_total)
        trajectory.append(bound)
        if bound < best_bound:
            best_bound = bound
            best_multipliers = multipliers.copy()

        subgradient = 1.0 - usage
        if target_value is not None:
            norm_sq = float(np.dot(subgradient, subgradient))
            if norm_sq <= 1e-12:
                break
            gap = max(0.0, bound - target_value)
            step = gap / norm_sq if gap > 0 else initial_step / np.sqrt(k)
        else:
            step = initial_step / np.sqrt(k)
        multipliers = np.maximum(0.0, multipliers - step * subgradient)

    return LagrangianResult(
        upper_bound=float(best_bound),
        iterations=iterations,
        bounds_per_iteration=tuple(trajectory),
        multipliers=best_multipliers,
    )

