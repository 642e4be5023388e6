"""The masked max-profit-path loop: the reference side of parity contract 21.

:func:`repro.offline.dag.best_path` gives a removed task a ``-inf`` gain and
visits only live tasks, so a removed successor costs nothing per arc.  This
is the loop it replaced, kept verbatim: it re-masks every node's successors
against the availability mask and skips non-finite nodes with
``np.isfinite``.  The fast loop must return the same path and the same
``repr(profit)`` on every input.  No ``src/`` code calls it.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.market.taskmap import DriverTaskMap
from repro.offline.dag import EMPTY_PATH, PathResult


def best_path_oracle(
    task_map: DriverTaskMap,
    available: Optional[np.ndarray] = None,
    use_valuation: bool = False,
    values: Optional[np.ndarray] = None,
) -> PathResult:
    """:func:`repro.offline.dag.best_path`, computed by the masked loop."""
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
        allowed = task_map.exit_ok.copy()
    else:
        if available.shape != (count,):
            raise ValueError("available mask has the wrong shape")
        allowed = task_map.exit_ok & available

    # dp[m]: best accumulated profit of a partial path source -> ... -> m,
    # excluding the final sink leg and the direct-cost credit.
    dp = np.full(count, -np.inf)
    parent = np.full(count, -1, dtype=int)

    entry = task_map.entry_ok & allowed
    entry_indices = np.nonzero(entry)[0]
    dp[entry_indices] = gains[entry_indices] - task_map.source_leg_costs[entry_indices]

    for m in (int(x) for x in net.topo_order):
        if not np.isfinite(dp[m]) or not allowed[m]:
            continue
        succ = net.successors[m]
        if succ.size == 0:
            continue
        mask = allowed[succ]
        if not mask.any():
            continue
        succ = succ[mask]
        leg_costs = net.leg_costs[m][mask]
        candidate = dp[m] + gains[succ] - leg_costs
        better = candidate > dp[succ]
        if better.any():
            improved = succ[better]
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
