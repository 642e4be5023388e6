"""Exhaustive search: the exact references that enumerate every path.

:func:`enumerate_paths` lists every feasible path of one driver's task map,
and :func:`brute_force_optimum` tries every combination of per-driver paths.
Both are exponential, so they run only on tiny instances, where they
cross-check the DAG program (:func:`repro.offline.dag.best_path`), the MILP
``Z*`` (:func:`repro.offline.exact_optimum`), the LP tier and greedy.  No
``src/`` code calls them.
"""

from __future__ import annotations

import itertools
from typing import List, Optional, Tuple

import numpy as np

from repro.core.objectives import Objective
from repro.core.solution import MarketSolution, evaluate_plans
from repro.market.instance import MarketInstance
from repro.market.taskmap import DriverTaskMap
from repro.offline import ExactResult


def enumerate_paths(
    task_map: DriverTaskMap,
    available: Optional[np.ndarray] = None,
    max_paths: int = 100_000,
) -> List[Tuple[int, ...]]:
    """Exhaustively enumerate every feasible non-empty path of a driver.

    Exponential in the worst case — intended for the tiny instances used by
    the exact brute-force solver and by tests that cross-check the DP.
    """
    net = task_map.network
    count = net.task_count
    if count == 0:
        return []
    if available is None:
        allowed = task_map.exit_ok
    else:
        allowed = task_map.exit_ok & available

    results: List[Tuple[int, ...]] = []

    def extend(prefix: List[int]) -> None:
        if len(results) >= max_paths:
            raise RuntimeError(f"more than {max_paths} paths; refusing to enumerate")
        results.append(tuple(prefix))
        last = prefix[-1]
        for nxt in (int(x) for x in task_map.successors_of(last)):
            if allowed[nxt] and nxt not in prefix:
                prefix.append(nxt)
                extend(prefix)
                prefix.pop()

    for start in (int(x) for x in np.nonzero(task_map.entry_ok & allowed)[0]):
        extend([start])
    return results


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
    return ExactResult(
        optimum=best_value,
        solution=solution,
        solver_status="brute-force",
        upper_bound=best_value,
        integral=True,
        repaired=False,
        fractional_arc_count=0,
    )
