"""Maximum-profit path in a driver's task map.

Step (a) of the greedy algorithm (Algorithm 1) needs, for every driver, the
highest-profit path from her source to her destination in the *current*
graph (tasks already claimed by other drivers are removed).  Because every
task map is a DAG whose topological order is "sort tasks by pickup deadline",
the maximum-profit path is found by a single forward dynamic-programming pass
over the arcs — the ``O(M²)`` "longest path in a DAG" routine the paper cites.

A removed task keeps its arcs but gets a ``-inf`` gain, so no candidate
through it can win and the pass visits only live tasks, with no per-arc mask.
A task's predecessor changes only on a *strict* improvement, so among equal
partial profits the earliest predecessor in topological order keeps it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..market.taskmap import DriverTaskMap


@dataclass(frozen=True, slots=True)
class PathResult:
    """The outcome of a max-profit-path search for one driver."""

    profit: float
    path: Tuple[int, ...]

    @property
    def is_empty(self) -> bool:
        return len(self.path) == 0


#: The result representing "take no tasks" (profit exactly 0).
EMPTY_PATH = PathResult(profit=0.0, path=())


def best_path(
    task_map: DriverTaskMap,
    available: Optional[np.ndarray] = None,
    use_valuation: bool = False,
    values: Optional[np.ndarray] = None,
) -> PathResult:
    """The maximum-profit feasible path for one driver.

    Parameters
    ----------
    task_map:
        The driver's task map.
    available:
        Optional boolean mask over tasks; tasks with ``available[m] == False``
        are treated as removed from the graph (already served by another
        driver).  ``None`` means every task is available.  Any other dtype
        raises ``TypeError``: an integer 0/1 vector would index, not mask.
    use_valuation:
        Use the customer valuation ``b_m`` instead of the price ``p_m``
        (social-welfare objective).
    values:
        Optional per-task value vector replacing the network's own
        ``p_m`` / ``b_m`` (the Lagrangian bound passes values shifted by its
        multipliers, which must not mutate the shared network).  Takes
        precedence over ``use_valuation``.

    Returns
    -------
    PathResult
        The best path and its profit.  If no path has strictly positive
        profit, :data:`EMPTY_PATH` is returned — taking no tasks is always
        feasible and worth exactly 0.
    """
    net = task_map.network
    count = net.task_count
    if count == 0:
        return EMPTY_PATH

    if values is None:
        values = net.valuations if use_valuation else net.prices
    elif values.shape != (count,):
        raise ValueError("values vector has the wrong shape")
    gains = values - net.service_costs

    if available is None:
        allowed = task_map.exit_ok
    else:
        if available.shape != (count,):
            raise ValueError("available mask has the wrong shape")
        if available.dtype != np.bool_:
            raise TypeError(f"available mask must be boolean, not {available.dtype}")
        allowed = task_map.exit_ok & available

    # dp[m]: best accumulated profit of a partial path source -> ... -> m,
    # excluding the final sink leg and the direct-cost credit.  A removed
    # task's gain is -inf, so no candidate into it passes the strict test.
    masked_gains = np.where(allowed, gains, -np.inf)
    dp = np.where(task_map.entry_ok & allowed, gains - task_map.source_leg_costs, -np.inf)
    parent = np.full(count, -1, dtype=int)

    topo = net.topo_order
    for m in topo[allowed[topo]].tolist():
        base = dp.item(m)
        if base == -np.inf:
            continue
        succ = net.successors[m]
        candidate = base + masked_gains[succ]
        candidate -= net.leg_costs[m]
        better = candidate > dp[succ]
        improved = succ[better]
        if improved.size:
            dp[improved] = candidate[better]
            parent[improved] = m

    # Close every partial path with its sink leg and the direct-cost credit.
    finite = np.isfinite(dp)
    if not finite.any():
        return EMPTY_PATH
    totals = np.where(
        finite, dp - task_map.sink_leg_costs + task_map.direct_leg.cost, -np.inf
    )
    best_end = int(np.argmax(totals))
    best_profit = float(totals[best_end])
    if best_profit <= 0.0:
        return EMPTY_PATH

    path: List[int] = []
    node = best_end
    while node != -1:
        path.append(node)
        node = int(parent[node])
    path.reverse()
    return PathResult(profit=best_profit, path=tuple(path))


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
