"""Parity contract 21: ``best_path``'s lean loop (a removed task has a
``-inf`` gain, only live tasks are visited) equals the masked loop it
replaced (``tests/dag_oracle.py``) — the same path tuple and the same
``repr(profit)`` on every input, ties included."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributed import SpatialPartitioner
from repro.geo import GeoPoint
from repro.market import Driver, Task
from repro.market.cost import Leg
from repro.market.taskmap import DriverTaskMap, TaskColumns, TaskNetwork
from repro.offline import GreedySolver, best_path
from repro.scenarios import compile_scenario, get_scenario, scenario_names

from ..conftest import build_random_instance
from ..dag_oracle import best_path_oracle

ORIGIN = GeoPoint(41.15, -8.61)


def assert_same_result(task_map, **kwargs) -> None:
    fast = best_path(task_map, **kwargs)
    reference = best_path_oracle(task_map, **kwargs)
    assert fast.path == reference.path
    assert repr(fast.profit) == repr(reference.profit)


def build_task_map(
    start_deadlines: np.ndarray,
    prices: np.ndarray,
    valuations: np.ndarray,
    service_costs: np.ndarray,
    successors: list,
    leg_costs: list,
    entry_ok: np.ndarray,
    exit_ok: np.ndarray,
    source_leg_costs: np.ndarray,
    sink_leg_costs: np.ndarray,
    direct_cost: float,
) -> DriverTaskMap:
    """A one-driver task map straight from its columns and arcs: every task
    servable, legs instant, ``topo_order`` the stable pickup-deadline sort."""
    count = len(start_deadlines)
    start_deadlines = np.asarray(start_deadlines, dtype=float)
    tasks = tuple(
        Task(
            task_id=f"t{m}",
            publish_ts=0.0,
            source=ORIGIN,
            destination=ORIGIN,
            start_deadline_ts=float(start_deadlines[m]),
            end_deadline_ts=float(start_deadlines[m]) + 1.0,
            price=float(prices[m]),
            wtp=float(valuations[m]),
        )
        for m in range(count)
    )
    columns = TaskColumns(
        durations_s=np.zeros(count),
        service_costs=np.asarray(service_costs, dtype=float),
        prices=np.asarray(prices, dtype=float),
        valuations=np.asarray(valuations, dtype=float),
        servable=np.ones(count, dtype=bool),
        start_deadlines=start_deadlines,
        end_deadlines=start_deadlines + 1.0,
        sources=np.zeros((count, 2)),
        destinations=np.zeros((count, 2)),
    )
    network = TaskNetwork(
        tasks=tasks,
        columns=columns,
        successors=tuple(np.asarray(succ, dtype=int) for succ in successors),
        leg_times=tuple(np.zeros(len(succ)) for succ in successors),
        leg_costs=tuple(np.asarray(costs, dtype=float) for costs in leg_costs),
        topo_order=np.argsort(start_deadlines, kind="stable"),
    )
    return DriverTaskMap(
        driver=Driver("d0", ORIGIN, ORIGIN, 0.0, 10.0),
        network=network,
        entry_ok=np.asarray(entry_ok, dtype=bool),
        exit_ok=np.asarray(exit_ok, dtype=bool),
        source_leg_times=np.zeros(count),
        source_leg_costs=np.asarray(source_leg_costs, dtype=float),
        sink_leg_times=np.zeros(count),
        sink_leg_costs=np.asarray(sink_leg_costs, dtype=float),
        direct_leg=Leg(time_s=0.0, cost=float(direct_cost)),
    )


@st.composite
def dag_cases(draw):
    """A hand-built task map and the arguments of one ``best_path`` call.

    Money is either small integers — sums are exact, so equal partial
    profits (ties) are common — or whole cents, whose binary sums round, so
    an operand-order change would show.  Arcs are random but only ever point
    forward in ``topo_order``, which is derived from pickup deadlines that
    often tie.
    """
    count = draw(st.integers(0, 9))
    integral = draw(st.booleans())

    def amounts(low: int, high: int, size: int = count) -> np.ndarray:
        if integral:
            element = st.integers(low, high)
        else:
            element = st.integers(100 * low, 100 * high).map(lambda cents: cents / 100)
        return np.array(draw(st.lists(element, min_size=size, max_size=size)), dtype=float)

    def flags(size: int = count) -> np.ndarray:
        return np.array(draw(st.lists(st.booleans(), min_size=size, max_size=size)), dtype=bool)

    start_deadlines = np.array(
        draw(st.lists(st.integers(0, 4), min_size=count, max_size=count)), dtype=float
    )
    topo_order = np.argsort(start_deadlines, kind="stable")
    successors, leg_costs = [None] * count, [None] * count
    for position, m in enumerate(topo_order.tolist()):
        later = topo_order[position + 1:]
        successors[m] = np.sort(later[flags(later.size)])
        leg_costs[m] = amounts(0, 4, successors[m].size)
    prices = amounts(0, 10)
    task_map = build_task_map(
        start_deadlines,
        prices=prices,
        valuations=prices + amounts(0, 3),
        service_costs=amounts(0, 4),
        successors=successors,
        leg_costs=leg_costs,
        entry_ok=flags(),
        exit_ok=flags(),
        source_leg_costs=amounts(0, 5),
        sink_leg_costs=amounts(0, 5),
        direct_cost=amounts(0, 8, 1)[0],
    )
    kwargs = {"use_valuation": draw(st.booleans())}
    if draw(st.booleans()):
        kwargs["available"] = flags()
    if draw(st.booleans()):
        kwargs["values"] = amounts(-3, 12)
    return task_map, kwargs


class TestLeanLoopEqualsMaskedLoop:
    @settings(max_examples=400)
    @given(dag_cases())
    def test_hand_built_task_maps(self, case):
        task_map, kwargs = case
        assert_same_result(task_map, **kwargs)

    def test_tie_keeps_the_earliest_predecessor(self):
        """Tasks 0 and 1 reach task 2 with equal partial profit; the first
        in topological order keeps it, and removing it hands task 2 to the
        other."""
        task_map = build_task_map(
            [0, 1, 2],
            prices=[5, 5, 5],
            valuations=[5, 5, 5],
            service_costs=[1, 1, 1],
            successors=[[2], [2], []],
            leg_costs=[[1], [1], []],
            entry_ok=[True, True, False],
            exit_ok=[True, True, True],
            source_leg_costs=[1, 1, 0],
            sink_leg_costs=[1, 1, 1],
            direct_cost=0,
        )
        assert best_path(task_map).path == (0, 2)
        assert_same_result(task_map)
        only_later = np.array([False, True, True])
        assert best_path(task_map, available=only_later).path == (1, 2)
        assert_same_result(task_map, available=only_later)

    @pytest.mark.parametrize("seed", [17, 23])
    def test_random_markets_with_masks_and_values(self, seed):
        instance = build_random_instance(task_count=40, driver_count=8, seed=seed)
        rng = np.random.default_rng(seed)
        prices = instance.task_network.prices
        for driver in instance.drivers:
            task_map = instance.task_map(driver.driver_id)
            assert_same_result(task_map)
            assert_same_result(task_map, use_valuation=True)
            for keep in (0.3, 0.7):
                mask = rng.random(instance.task_count) < keep
                assert_same_result(task_map, available=mask)
                assert_same_result(task_map, available=mask, use_valuation=True)
                shifted = prices - rng.uniform(0.0, 3.0, size=instance.task_count)
                assert_same_result(task_map, available=mask, values=shifted)


class TestGreedyUnderTheOracle:
    """Greedy on a compiled scenario's shards: the lean loop and the masked
    loop give the same assignment, plan profits and run statistics."""

    def test_scenario_shards(self, monkeypatch):
        spec = get_scenario(scenario_names()[0]).with_scale(150, 20).with_seed(2017)
        compiled = compile_scenario(spec)
        shards = SpatialPartitioner(compiled.region, 2, 2).partition(compiled.instance).shards
        fast = [GreedySolver().solve(shard.instance) for shard in shards]
        monkeypatch.setattr("repro.offline.greedy.best_path", best_path_oracle)
        reference = [GreedySolver().solve(shard.instance) for shard in shards]
        assert sum(result.stats.paths_recomputed for result in fast) > 0
        for got, want in zip(fast, reference):
            assert got.stats == want.stats
            assert got.solution.assignment() == want.solution.assignment()
            assert [repr(p.profit) for p in got.solution.plans] == [
                repr(p.profit) for p in want.solution.plans
            ]
