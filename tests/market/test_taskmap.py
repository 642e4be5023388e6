"""Tests for task-map construction (Eqs. 1-3 of the paper)."""

import numpy as np
import pytest

from repro.market import (
    Driver,
    MarketCostModel,
    Task,
    build_driver_task_maps,
    build_task_network,
)
from repro.market.taskmap import SINK_NODE, SOURCE_NODE

from ..conftest import build_chain_instance, build_random_instance, flat_travel_model, point_east
from ..taskmap_oracle import (
    arc_exists,
    is_feasible_path,
    path_excess_cost,
    path_profit,
    successor_leg,
)


@pytest.fixture(scope="module")
def chain():
    return build_chain_instance()


class TestTaskNetwork:
    def test_empty_network(self):
        network = build_task_network([], MarketCostModel(flat_travel_model()))
        assert network.task_count == 0
        assert network.arc_head.size == 0
        assert network.successors == ()

    def test_servable_eq1(self):
        cost_model = MarketCostModel(flat_travel_model())
        # 5 km ride takes 600 s at 30 km/h; a 300 s window is not enough.
        tight = Task(
            task_id="tight",
            publish_ts=0.0,
            source=point_east(0.0),
            destination=point_east(5.0),
            start_deadline_ts=100.0,
            end_deadline_ts=400.0,
            price=5.0,
            distance_km=5.0,
        )
        roomy = Task(
            task_id="roomy",
            publish_ts=0.0,
            source=point_east(0.0),
            destination=point_east(5.0),
            start_deadline_ts=100.0,
            end_deadline_ts=100.0 + 700.0,
            price=5.0,
            distance_km=5.0,
        )
        network = build_task_network([tight, roomy], cost_model)
        assert not network.servable[0]
        assert network.servable[1]

    def test_chain_arc_exists_and_respects_time(self, chain):
        network = chain.task_network
        # Task 0 ends at km 5 where task 1 starts, with 300 s of slack: arc exists.
        assert 1 in set(int(x) for x in network.successors[0])
        # The reverse arc would require time travel.
        assert 0 not in set(int(x) for x in network.successors[1])

    def test_successor_leg_lookup(self, chain):
        network = chain.task_network
        leg = successor_leg(network, chain.cost_model, 0, 1)
        assert leg is not None
        assert leg.time_s == pytest.approx(0.0, abs=1.0)  # same location
        assert successor_leg(network, chain.cost_model, 1, 0) is None

    def test_csr_arcs_are_the_rows_of_eq3(self):
        """Row ``m`` of the CSR table holds, heads ascending, every servable
        ``m' != m`` whose pickup deadline the leg from ``m`` reaches, with that
        leg's cost; ``successors`` / ``leg_costs`` are views of the table."""
        instance = build_random_instance(task_count=40, driver_count=5, seed=10)
        network, columns = instance.task_network, instance.task_columns
        times, costs = instance.cost_model.pairwise_leg_matrix(
            columns.destinations, columns.sources
        )
        count = network.task_count
        assert network.arc_ptr.shape == (count + 1,)
        assert network.arc_head.size == network.arc_cost.size == network.arc_ptr[-1]
        for m in range(count):
            expected = [
                m_prime
                for m_prime in range(count)
                if m_prime != m
                and columns.servable[m]
                and columns.servable[m_prime]
                and times[m, m_prime]
                <= columns.start_deadlines[m_prime] - columns.end_deadlines[m] + 1e-9
            ]
            lo, hi = network.arc_ptr[m], network.arc_ptr[m + 1]
            assert network.arc_head[lo:hi].tolist() == expected
            assert np.array_equal(network.arc_cost[lo:hi], costs[m, expected])
            assert network.successors[m].base is network.arc_head
            assert network.leg_costs[m].base is network.arc_cost
        assert sum(succ.size for succ in network.successors) > 0

    def test_topo_order_sorted_by_start_deadline(self, chain):
        network = chain.task_network
        deadlines = [chain.tasks[int(i)].start_deadline_ts for i in network.topo_order]
        assert deadlines == sorted(deadlines)

    def test_no_self_arcs(self):
        instance = build_random_instance(task_count=25, driver_count=5, seed=8)
        network = instance.task_network
        for m, successors in enumerate(network.successors):
            assert m not in set(int(x) for x in successors)

    def test_arcs_only_between_servable_tasks(self):
        instance = build_random_instance(task_count=40, driver_count=5, seed=9)
        network = instance.task_network
        for m, successors in enumerate(network.successors):
            if successors.size and not network.servable[m]:
                pytest.fail(f"unservable task {m} has outgoing arcs")
            for m_prime in (int(x) for x in successors):
                assert network.servable[m_prime]

    def test_arc_time_feasibility_invariant(self):
        """Every arc m -> m' must satisfy leg_time <= start'(m') - end(m)."""
        instance = build_random_instance(task_count=40, driver_count=5, seed=10)
        network = instance.task_network
        for m, successors in enumerate(network.successors):
            end_m = instance.tasks[m].end_deadline_ts
            for m_prime in (int(x) for x in successors):
                slack = instance.tasks[m_prime].start_deadline_ts - end_m
                leg = successor_leg(network, instance.cost_model, m, m_prime)
                assert leg.time_s <= slack + 1e-6


class TestDriverTaskMap:
    def test_chainer_sees_both_tasks(self, chain):
        task_map = chain.task_map("chainer")
        assert set(int(x) for x in task_map.entry_tasks()) == {0, 1}
        assert set(int(x) for x in task_map.usable_tasks()) == {0, 1}
        assert task_map.has_any_task()

    def test_stranded_driver_sees_nothing(self, chain):
        task_map = chain.task_map("stranded")
        assert task_map.entry_tasks().size == 0
        assert task_map.usable_tasks().size == 0
        assert not task_map.has_any_task()

    def test_arc_exists_queries(self, chain):
        task_map = chain.task_map("chainer")
        assert arc_exists(task_map, SOURCE_NODE, 0)
        assert arc_exists(task_map, 0, 1)
        assert arc_exists(task_map, 1, SINK_NODE)
        assert arc_exists(task_map, SOURCE_NODE, SINK_NODE)
        assert not arc_exists(task_map, 1, 0)

    def test_successors_respect_allowed_mask(self, chain):
        task_map = chain.task_map("chainer")
        allowed = np.array([True, False])
        assert list(task_map.successors_of(0, allowed)) == []
        allowed = np.array([True, True])
        assert [int(x) for x in task_map.successors_of(0, allowed)] == [1]

    def test_eq2_source_arc_requires_reaching_pickup_in_time(self):
        """A driver whose shift starts too late cannot enter a task."""
        cost_model = MarketCostModel(flat_travel_model())
        task = Task(
            task_id="m",
            publish_ts=0.0,
            source=point_east(5.0),
            destination=point_east(10.0),
            start_deadline_ts=1000.0,
            end_deadline_ts=2000.0,
            price=5.0,
            distance_km=5.0,
        )
        network = build_task_network([task], cost_model)
        # 5 km approach takes 600 s.  Starting at 300 -> arrives 900 <= 1000: ok.
        early = Driver("early", point_east(0.0), point_east(10.0), 300.0, 4000.0)
        # Starting at 500 -> arrives 1100 > 1000: no entry arc.
        late = Driver("late", point_east(0.0), point_east(10.0), 500.0, 4000.0)
        early_map = build_driver_task_maps([early], network, cost_model)[early.driver_id]
        late_map = build_driver_task_maps([late], network, cost_model)[late.driver_id]
        assert early_map.entry_ok[0]
        assert not late_map.entry_ok[0]

    def test_eq3_sink_arc_requires_reaching_home_in_time(self):
        """A driver who cannot reach her destination after the task cannot use it."""
        cost_model = MarketCostModel(flat_travel_model())
        task = Task(
            task_id="m",
            publish_ts=0.0,
            source=point_east(0.0),
            destination=point_east(5.0),
            start_deadline_ts=1000.0,
            end_deadline_ts=1800.0,
            price=5.0,
            distance_km=5.0,
        )
        network = build_task_network([task], cost_model)
        # From the drop-off (km 5) home to km 10 takes 600 s after the 1800 s deadline.
        relaxed = Driver("relaxed", point_east(0.0), point_east(10.0), 0.0, 2500.0)
        hurried = Driver("hurried", point_east(0.0), point_east(10.0), 0.0, 2300.0)
        assert build_driver_task_maps([relaxed], network, cost_model)[relaxed.driver_id].exit_ok[0]
        assert not build_driver_task_maps([hurried], network, cost_model)[hurried.driver_id].exit_ok[0]

    def test_build_driver_task_maps_rejects_duplicates(self, chain):
        driver = chain.drivers[0]
        with pytest.raises(ValueError):
            build_driver_task_maps([driver, driver], chain.task_network, chain.cost_model)

    def test_empty_network_driver_map(self):
        cost_model = MarketCostModel(flat_travel_model())
        network = build_task_network([], cost_model)
        driver = Driver("d", point_east(0.0), point_east(1.0), 0.0, 100.0)
        task_map = build_driver_task_maps([driver], network, cost_model)[driver.driver_id]
        assert task_map.task_count == 0
        assert not task_map.has_any_task()
        assert path_profit(task_map, ()) == 0.0


class TestPathEvaluation:
    def test_empty_path_profit_zero(self, chain):
        task_map = chain.task_map("chainer")
        assert path_profit(task_map, []) == 0.0
        assert path_excess_cost(task_map, []) == 0.0

    def test_single_task_profit_arithmetic(self, chain):
        """Chainer lives at task 0's source; her destination is at km 10.

        Taking only task 0 (km 0 -> 5): she pockets the price, pays the ride
        cost, pays the 5 km empty leg to her destination, and is credited the
        10 km she would have driven anyway: 5 - 0.6 - 0.6 + 1.2 = 5.0.
        """
        task_map = chain.task_map("chainer")
        profit = path_profit(task_map, [0])
        assert profit == pytest.approx(5.0, rel=0.01)

    def test_chain_profit_arithmetic(self, chain):
        """Both tasks cover her entire route, so she pockets both prices."""
        task_map = chain.task_map("chainer")
        profit = path_profit(task_map, [0, 1])
        assert profit == pytest.approx(10.0, rel=0.01)

    def test_excess_cost_of_chain_is_zero(self, chain):
        task_map = chain.task_map("chainer")
        assert path_excess_cost(task_map, [0, 1]) == pytest.approx(0.0, abs=0.02)

    def test_profit_plus_excess_cost_equals_prices(self, chain):
        """By Eq. (4), profit = sum of prices - excess cost for any path."""
        task_map = chain.task_map("chainer")
        for path in ([0], [1], [0, 1]):
            prices = sum(chain.tasks[m].price for m in path)
            assert path_profit(task_map, path) == pytest.approx(
                prices - path_excess_cost(task_map, path), rel=1e-9
            )

    def test_social_welfare_uses_valuation(self, chain):
        task_map = chain.task_map("chainer")
        # No WTP recorded: valuation == price, so both objectives coincide.
        assert path_profit(task_map, [0, 1], use_valuation=True) == pytest.approx(
            path_profit(task_map, [0, 1])
        )

    def test_feasibility_checks(self, chain):
        task_map = chain.task_map("chainer")
        assert is_feasible_path(task_map, [])
        assert is_feasible_path(task_map, [0])
        assert is_feasible_path(task_map, [0, 1])
        assert not is_feasible_path(task_map, [1, 0])
        assert not is_feasible_path(task_map, [0, 0])
        stranded_map = chain.task_map("stranded")
        assert not is_feasible_path(stranded_map, [0])

    def test_path_profit_rejects_missing_arc(self, chain):
        task_map = chain.task_map("chainer")
        with pytest.raises(ValueError):
            path_profit(task_map, [1, 0])
