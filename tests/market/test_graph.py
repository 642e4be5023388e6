"""Tests for the merged market graph oracle and the diameter computation."""

import networkx as nx
import pytest

from repro.market import graph_summary, market_diameter

from ..conftest import build_chain_instance, build_random_instance
from ..graph_oracle import (
    build_driver_graph,
    build_market_graph,
    driver_sink,
    driver_source,
    longest_task_chain,
    task_node,
)


@pytest.fixture(scope="module")
def chain():
    return build_chain_instance()


@pytest.fixture(scope="module")
def random_instance():
    return build_random_instance(task_count=30, driver_count=6, seed=12)


class TestDriverGraph:
    def test_chainer_graph_structure(self, chain):
        graph = build_driver_graph(chain.task_map("chainer"), chain.cost_model)
        src = driver_source("chainer")
        dst = driver_sink("chainer")
        assert graph.has_edge(src, dst)
        assert graph.has_edge(src, task_node(0))
        assert graph.has_edge(task_node(0), task_node(1))
        assert graph.has_edge(task_node(1), dst)
        assert not graph.has_edge(task_node(1), task_node(0))

    def test_stranded_graph_has_only_direct_edge(self, chain):
        graph = build_driver_graph(chain.task_map("stranded"), chain.cost_model)
        assert graph.number_of_edges() == 1
        assert graph.has_edge(driver_source("stranded"), driver_sink("stranded"))

    def test_edge_attributes_present(self, chain):
        graph = build_driver_graph(chain.task_map("chainer"), chain.cost_model)
        data = graph.get_edge_data(driver_source("chainer"), task_node(0))
        assert "cost" in data and "time_s" in data
        node_data = graph.nodes[task_node(0)]
        assert node_data["kind"] == "task"
        assert node_data["price"] == pytest.approx(5.0)

    def test_driver_graphs_are_acyclic(self, random_instance):
        for driver in random_instance.drivers:
            graph = build_driver_graph(
                random_instance.task_map(driver.driver_id), random_instance.cost_model
            )
            assert nx.is_directed_acyclic_graph(graph)


class TestMarketGraph:
    def test_merged_graph_contains_all_driver_terminals(self, chain):
        graph = build_market_graph(chain)
        for driver in chain.drivers:
            assert driver_source(driver.driver_id) in graph
            assert driver_sink(driver.driver_id) in graph

    def test_merged_graph_is_acyclic(self, random_instance):
        assert nx.is_directed_acyclic_graph(build_market_graph(random_instance))

    def test_task_nodes_shared_between_drivers(self, chain):
        graph = build_market_graph(chain)
        task_nodes = [n for n in graph.nodes if n[0] == "task"]
        # Only the chainer can serve tasks, so exactly the two tasks appear once.
        assert len(task_nodes) == 2


class TestDiameter:
    def test_chain_instance_diameter(self, chain):
        assert longest_task_chain(chain.task_map("chainer"), chain.cost_model) == 2
        assert longest_task_chain(chain.task_map("stranded"), chain.cost_model) == 0
        assert market_diameter(chain) == 2

    def test_diameter_bounded_by_task_count(self, random_instance):
        d = market_diameter(random_instance)
        assert 0 <= d <= random_instance.task_count


class TestSummary:
    def test_graph_summary_keys_and_consistency(self, random_instance):
        summary = graph_summary(random_instance)
        assert summary["drivers"] == random_instance.driver_count
        assert summary["tasks"] == random_instance.task_count
        assert summary["servable_tasks"] <= summary["tasks"]
        assert summary["diameter"] == market_diameter(random_instance)
        assert summary["driver_entry_arcs"] <= summary["driver_exit_arcs"]
