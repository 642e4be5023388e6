"""The explicit merged market graph ``G``: the reference side of parity
contract 22.

Section IV-A of the paper merges all drivers' task maps into one DAG ``G``
holding every driver source, every driver destination and every task node.
:func:`repro.market.market_diameter` never builds it: ``D`` comes from one
forward pass over the fleet's task maps.  The :mod:`networkx` builders here
draw each map as an explicit graph, and :func:`longest_task_chain` reads the
longest source-rooted chain of task nodes off it; the pass must equal its
maximum over drivers.  No ``src/`` code calls this module.
"""

from __future__ import annotations

from typing import Tuple

import networkx as nx

from repro.market.cost import MarketCostModel
from repro.market.instance import MarketInstance
from repro.market.taskmap import DriverTaskMap


def driver_source(driver_id: str) -> Tuple[str, str]:
    """Graph node representing driver ``driver_id``'s source (paper label 0)."""
    return ("driver_source", driver_id)


def driver_sink(driver_id: str) -> Tuple[str, str]:
    """Graph node representing driver ``driver_id``'s destination (label -1)."""
    return ("driver_sink", driver_id)


def task_node(index: int) -> Tuple[str, int]:
    """Graph node representing task ``index``."""
    return ("task", index)


def build_driver_graph(task_map: DriverTaskMap, cost_model: MarketCostModel) -> nx.DiGraph:
    """One driver's task map as an explicit :class:`networkx.DiGraph`.

    Arc attributes carry the empty-drive leg cost (``cost``) and time
    (``time_s``; task-to-task times from ``cost_model``); task nodes carry
    the price, service cost and deadlines.
    """
    graph = nx.DiGraph()
    driver_id = task_map.driver.driver_id
    src = driver_source(driver_id)
    dst = driver_sink(driver_id)
    graph.add_node(src, kind="source", driver_id=driver_id)
    graph.add_node(dst, kind="sink", driver_id=driver_id)
    graph.add_edge(src, dst, cost=task_map.direct_leg.cost, time_s=task_map.direct_leg.time_s)

    net = task_map.network
    leg_times, _ = cost_model.pairwise_leg_matrix(
        net.columns.destinations, net.columns.sources
    )
    usable = set(int(m) for m in task_map.usable_tasks())
    for m in usable:
        task = net.tasks[m]
        graph.add_node(
            task_node(m),
            kind="task",
            task_id=task.task_id,
            price=float(net.prices[m]),
            service_cost=float(net.service_costs[m]),
            start_deadline_ts=task.start_deadline_ts,
            end_deadline_ts=task.end_deadline_ts,
        )
        graph.add_edge(
            task_node(m),
            dst,
            cost=float(task_map.sink_leg_costs[m]),
            time_s=float(task_map.sink_leg_times[m]),
        )
    for m in (int(x) for x in task_map.entry_tasks()):
        graph.add_edge(
            src,
            task_node(m),
            cost=float(task_map.source_leg_costs[m]),
            time_s=float(task_map.source_leg_times[m]),
        )
    for m in usable:
        for j, m_prime in enumerate(net.successors[m]):
            m_prime = int(m_prime)
            if m_prime not in usable:
                continue
            graph.add_edge(
                task_node(m),
                task_node(m_prime),
                cost=float(net.leg_costs[m][j]),
                time_s=float(leg_times[m, m_prime]),
            )
    return graph


def build_market_graph(instance: MarketInstance) -> nx.DiGraph:
    """The merged DAG ``G`` over all drivers (Section IV-A)."""
    graph = nx.DiGraph()
    for driver in instance.drivers:
        driver_graph = build_driver_graph(
            instance.task_map(driver.driver_id), instance.cost_model
        )
        graph = nx.compose(graph, driver_graph)
    return graph


def longest_task_chain(task_map: DriverTaskMap, cost_model: MarketCostModel) -> int:
    """Most task nodes on any path of the driver's graph that starts at her
    source: the longest path of the subgraph her source reaches."""
    graph = build_driver_graph(task_map, cost_model)
    src = driver_source(task_map.driver.driver_id)
    reached = graph.subgraph({src} | nx.descendants(graph, src))
    return sum(1 for node in nx.dag_longest_path(reached) if node[0] == "task")
