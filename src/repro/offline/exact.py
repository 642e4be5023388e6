"""Exact optimum ``Z*`` for small instances.

Section VI-B of the paper: "For the evaluation of small-scale problems (e.g.
for n <= 50 and m <= 100), we can use the integer programming solvers of
CPLEX or MOSEK to calculate the exact value of the best integer solution
Z*".  Neither commercial solver is available offline, so this module solves
the same binary arc-flow program with the open-source HiGHS solver via
:func:`scipy.optimize.milp`, and offers a pure-Python brute-force solver for
tiny instances used to cross-check both the MILP and the greedy algorithm.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy import optimize, sparse

from ..core.objectives import Objective
from ..core.solution import MarketSolution, evaluate_plans
from ..market.instance import MarketInstance
from .dag import enumerate_paths
from .formulation import ArcFlowModel, build_arc_flow_model


class ExactSolverError(RuntimeError):
    """Raised when the MILP solver does not return an optimal solution."""


@dataclass(frozen=True)
class ExactResult:
    """The exact optimum and the corresponding assignment."""

    optimum: float
    solution: MarketSolution
    solver_status: str


#: Instance sizes above which :func:`exact_optimum` refuses to run by default
#: (mirroring the paper's "small-scale problems" remark).
DEFAULT_SIZE_LIMIT = (60, 150)


def exact_optimum(
    instance: MarketInstance,
    objective: Objective = Objective.DRIVERS_PROFIT,
    size_limit: Optional[Tuple[int, int]] = DEFAULT_SIZE_LIMIT,
    time_limit_s: Optional[float] = 120.0,
) -> ExactResult:
    """Solve the binary program exactly with HiGHS.

    Parameters
    ----------
    size_limit:
        ``(max_drivers, max_tasks)`` guard; pass ``None`` to lift it.
    time_limit_s:
        MILP time limit handed to HiGHS.  A run the limit stops raises
        :class:`ExactSolverError`; its incumbent is not reported as ``Z*``.
    """
    if size_limit is not None:
        max_drivers, max_tasks = size_limit
        if instance.driver_count > max_drivers or instance.task_count > max_tasks:
            raise ExactSolverError(
                f"instance with {instance.driver_count} drivers / {instance.task_count} tasks "
                f"exceeds the exact-solver size limit {size_limit}; pass size_limit=None to force"
            )

    model = build_arc_flow_model(instance, objective=objective, include_rationality=True)
    if model.variable_count == 0:
        return ExactResult(
            optimum=0.0,
            solution=MarketSolution.empty(instance, objective),
            solver_status="empty",
        )

    constraints = [
        optimize.LinearConstraint(model.A_eq, model.b_eq, model.b_eq),
        optimize.LinearConstraint(model.A_ub, -np.inf, model.b_ub),
    ]
    options = {}
    if time_limit_s is not None:
        options["time_limit"] = float(time_limit_s)
    result = optimize.milp(
        c=-model.objective,
        constraints=constraints,
        bounds=optimize.Bounds(0.0, 1.0),
        integrality=np.ones(model.variable_count),
        options=options,
    )
    if result.status != 0:
        raise ExactSolverError(f"MILP failed: {result.message}")
    assignment = model.solution_to_assignment(np.asarray(result.x))
    solution = MarketSolution.from_assignment(instance, assignment, objective)
    return ExactResult(
        optimum=float(-result.fun + model.constant),
        solution=solution,
        solver_status=result.message,
    )


def brute_force_optimum(
    instance: MarketInstance,
    objective: Objective = Objective.DRIVERS_PROFIT,
    max_paths_per_driver: int = 2000,
) -> ExactResult:
    """Exhaustive search over combinations of per-driver paths.

    Exponential — only usable for instances with a handful of drivers and
    tasks; exists to cross-validate the MILP and greedy solvers in tests.
    """
    per_driver_options: List[List[Tuple[float, Tuple[int, ...]]]] = []
    driver_ids: List[str] = []
    for driver in instance.drivers:
        paths = enumerate_paths(instance.task_map(driver.driver_id), max_paths=max_paths_per_driver)
        profits = evaluate_plans(instance, [(driver, path) for path in paths], objective)
        options: List[Tuple[float, Tuple[int, ...]]] = [(0.0, ())]
        options += [(profit, path) for path, profit in zip(paths, profits) if profit > 0.0]
        per_driver_options.append(options)
        driver_ids.append(driver.driver_id)

    best_value = 0.0
    best_choice: Tuple[Tuple[float, Tuple[int, ...]], ...] = tuple(
        (0.0, ()) for _ in driver_ids
    )
    for combo in itertools.product(*per_driver_options):
        used: set[int] = set()
        feasible = True
        total = 0.0
        for profit, path in combo:
            if used.intersection(path):
                feasible = False
                break
            used.update(path)
            total += profit
        if feasible and total > best_value:
            best_value = total
            best_choice = combo

    assignment = {
        driver_id: path
        for driver_id, (_profit, path) in zip(driver_ids, best_choice)
        if path
    }
    solution = MarketSolution.from_assignment(instance, assignment, objective)
    return ExactResult(optimum=best_value, solution=solution, solver_status="brute-force")
