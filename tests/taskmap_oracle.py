"""Path queries read off a built task map: the reference side of parity
contract 20.

``repro.core.solution.evaluate_plans`` prices and checks task lists from the
legs they drive, without building a task map.  These functions answer the
same questions by walking a :class:`~repro.market.taskmap.DriverTaskMap` and
its shared :class:`~repro.market.taskmap.TaskNetwork` arc by arc — the
definition the evaluator must reproduce bit for bit.  No ``src/`` code calls
them.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.market.cost import Leg, MarketCostModel
from repro.market.taskmap import SINK_NODE, SOURCE_NODE, DriverTaskMap, TaskNetwork


def network_from_rows(tasks, columns, successors, leg_costs) -> TaskNetwork:
    """A hand-built :class:`TaskNetwork` from per-task successor and leg-cost
    lists, stored as the CSR arc table; ``topo_order`` sorts by pickup
    deadline, as :func:`~repro.market.taskmap.build_task_network` does."""
    lengths = [len(succ) for succ in successors]
    return TaskNetwork(
        tasks=tuple(tasks),
        columns=columns,
        arc_ptr=np.concatenate(([0], np.cumsum(lengths, dtype=int))),
        arc_head=np.array([m for succ in successors for m in succ], dtype=int),
        arc_cost=np.array([c for costs in leg_costs for c in costs], dtype=float),
        topo_order=np.argsort(columns.start_deadlines, kind="stable"),
    )


def arc_position(network: TaskNetwork, m: int, m_prime: int) -> Optional[int]:
    """Position of arc ``m -> m_prime`` in the network's arc table, if it exists."""
    lo = int(network.arc_ptr[m])
    positions = np.nonzero(network.arc_head[lo : network.arc_ptr[m + 1]] == m_prime)[0]
    return lo + int(positions[0]) if positions.size else None


def successor_leg(
    network: TaskNetwork, cost_model: MarketCostModel, m: int, m_prime: int
) -> Optional[Leg]:
    """The empty-drive leg of arc ``m -> m_prime`` if it exists: its cost read
    off the network, its time from the cost model on the one pair."""
    j = arc_position(network, m, m_prime)
    if j is None:
        return None
    columns = network.columns
    times, _ = cost_model.pairwise_leg_matrix(
        columns.destinations[m : m + 1], columns.sources[m_prime : m_prime + 1]
    )
    return Leg(time_s=float(times[0, 0]), cost=float(network.arc_cost[j]))


def arc_exists(task_map: DriverTaskMap, tail, head) -> bool:
    """Whether the task map contains the arc ``tail -> head``.

    ``tail``/``head`` are task indices or the :data:`SOURCE_NODE` /
    :data:`SINK_NODE` sentinels.
    """
    if tail == SOURCE_NODE and head == SINK_NODE:
        return True
    if tail == SOURCE_NODE:
        return bool(task_map.entry_ok[int(head)])
    if head == SINK_NODE:
        return bool(task_map.exit_ok[int(tail)])
    tail_i, head_i = int(tail), int(head)
    if not task_map.exit_ok[head_i]:
        return False
    return arc_position(task_map.network, tail_i, head_i) is not None


def is_feasible_path(task_map: DriverTaskMap, path: Sequence[int]) -> bool:
    """Whether ``path`` is a valid task list: distinct task indices in
    ``[0, M)`` that start with an entry arc, follow existing arcs, and end
    with an exit arc.  The empty path is always feasible."""
    if len(path) == 0:
        return True
    if any(not 0 <= m < task_map.task_count for m in path):
        return False
    if len(set(path)) != len(path):
        return False
    if not task_map.entry_ok[path[0]]:
        return False
    for tail, head in zip(path[:-1], path[1:]):
        if not arc_exists(task_map, tail, head):
            return False
    return bool(task_map.exit_ok[path[-1]])


def path_profit(task_map: DriverTaskMap, path: Sequence[int], use_valuation: bool = False) -> float:
    """The profit ``r_π`` of a task list (Eq. (4) restricted to one driver).

    ``sum(value_m - ĉ_m) - (source leg + connecting legs + sink leg)
    + c_{n,0,-1}``, with ``b_m`` in place of ``p_m`` when ``use_valuation``.
    The empty path has profit exactly 0.
    """
    if len(path) == 0:
        return 0.0
    net = task_map.network
    values = net.valuations if use_valuation else net.prices
    total = 0.0
    for m in path:
        total += float(values[m] - net.service_costs[m])
    total -= float(task_map.source_leg_costs[path[0]])
    for tail, head in zip(path[:-1], path[1:]):
        total -= _arc_cost(net, tail, head)
    total -= float(task_map.sink_leg_costs[path[-1]])
    total += task_map.direct_leg.cost
    return total


def path_excess_cost(task_map: DriverTaskMap, path: Sequence[int]) -> float:
    """The excess driving cost of a task list (the parenthesised term of
    Eq. (4)): everything the driver drives beyond the original
    source-to-destination plan."""
    if len(path) == 0:
        return 0.0
    net = task_map.network
    cost = float(task_map.source_leg_costs[path[0]])
    for m in path:
        cost += float(net.service_costs[m])
    for tail, head in zip(path[:-1], path[1:]):
        cost += _arc_cost(net, tail, head)
    cost += float(task_map.sink_leg_costs[path[-1]])
    return cost - task_map.direct_leg.cost


def _arc_cost(network: TaskNetwork, tail: int, head: int) -> float:
    j = arc_position(network, tail, head)
    if j is None:
        raise ValueError(f"path uses a non-existent arc {tail} -> {head}")
    return float(network.arc_cost[j])
