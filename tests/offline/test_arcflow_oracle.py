"""Parity contract 23: ``build_arc_flow_model``'s array blocks over the task
network's CSR arcs == the per-arc loop it replaced
(``tests/arcflow_oracle.py``).

Every array of the model is pinned exactly: the arc keys, the objective, the
constant, both right-hand sides, and both constraint matrices' CSR
``indptr`` / ``indices`` / ``data`` — on compiled-scenario shards for both
objectives with and without the rationality rows, and on hand-built edge
cases.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.core.objectives import Objective
from repro.distributed import SpatialPartitioner
from repro.geo import HaversineEstimator, TravelModel
from repro.market import Driver, MarketCostModel, MarketInstance, Task
from repro.offline import build_arc_flow_model
from repro.scenarios import compile_scenario, get_scenario, scenario_names

from ..arcflow_oracle import build_arc_flow_model_oracle
from ..conftest import ANCHOR, build_chain_instance, point_east

MODES = list(itertools.product(Objective, (True, False)))


def assert_same_model(instance, objective: Objective, include_rationality: bool) -> None:
    fast = build_arc_flow_model(instance, objective, include_rationality)
    reference = build_arc_flow_model_oracle(instance, objective, include_rationality)
    assert fast.arcs == reference.arcs
    assert [type(node) for arc in fast.arcs for node in arc] == [
        type(node) for arc in reference.arcs for node in arc
    ]
    assert np.array_equal(fast.objective, reference.objective)
    assert fast.constant == reference.constant
    assert np.array_equal(fast.b_eq, reference.b_eq)
    assert np.array_equal(fast.b_ub, reference.b_ub)
    for name in ("A_eq", "A_ub"):
        ours, theirs = getattr(fast, name), getattr(reference, name)
        assert ours.shape == theirs.shape, name
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(ours, part), getattr(theirs, part)), (name, part)


@pytest.fixture(scope="module")
def shards():
    spec = get_scenario(scenario_names()[0]).with_scale(150, 20).with_seed(2017)
    compiled = compile_scenario(spec)
    return SpatialPartitioner(compiled.region, 2, 2).partition(compiled.instance).shards


@pytest.fixture(scope="module")
def chain():
    return build_chain_instance()


@pytest.mark.parametrize("objective,include_rationality", MODES)
def test_scenario_shards(shards, objective, include_rationality):
    assert sum(len(build_arc_flow_model(s.instance).arcs) for s in shards) > 1000
    for shard in shards:
        assert_same_model(shard.instance, objective, include_rationality)


@pytest.mark.parametrize("objective,include_rationality", MODES)
def test_chain_with_a_stranded_driver(chain, objective, include_rationality):
    """``stranded`` has no usable task: its block is the idle arc alone."""
    assert not chain.task_map("stranded").usable_tasks().size
    assert_same_model(chain, objective, include_rationality)


@pytest.mark.parametrize("objective,include_rationality", MODES)
def test_no_drivers(chain, objective, include_rationality):
    empty = chain.with_drivers([])
    assert build_arc_flow_model(empty).variable_count == 0
    assert_same_model(empty, objective, include_rationality)


@pytest.mark.parametrize("objective,include_rationality", MODES)
def test_no_tasks(chain, objective, include_rationality):
    assert_same_model(chain.with_tasks([]), objective, include_rationality)


@pytest.mark.parametrize("objective,include_rationality", MODES)
def test_unservable_tasks(chain, objective, include_rationality):
    """Tasks whose ride does not fit their own window, one between the chain's
    two tasks and one after them: no arc touches them, and the servable tasks
    keep their arcs."""

    def unservable(task_id: str, start_ts: float) -> Task:
        end_ts = start_ts + 60.0  # a 5 km ride takes 600 s
        return Task(task_id, 0.0, point_east(0.0), point_east(5.0), start_ts, end_ts, 9.0)

    first, second = chain.tasks
    instance = chain.with_tasks(
        [first, unservable("early", 1100.0), second, unservable("late", 9000.0)]
    )
    assert list(instance.task_network.servable) == [True, False, True, False]
    assert_same_model(instance, objective, include_rationality)


@pytest.mark.parametrize("objective,include_rationality", MODES)
def test_arc_from_a_task_that_is_not_an_exit(objective, include_rationality):
    """Task 1 ends 8 km from home with no time left to drive it, so it is not
    an exit task; task 2's recorded ride is 0.1 km although it ends at home,
    so it is.  The network's arc 1 -> 2 has a usable head but no usable tail,
    and must not become a variable."""
    cost_model = MarketCostModel(TravelModel(HaversineEstimator(circuity=1.0)))
    home, near, far = ANCHOR, ANCHOR.offset_km(0.0, 0.5), ANCHOR.offset_km(0.0, 8.0)
    tasks = [
        Task("t0", 0.0, home, near, 100.0, 400.0, 2.0, distance_km=0.5),
        Task("t1", 0.0, near, far, 1000.0, 2200.0, 5.0, distance_km=7.5),
        Task("t2", 0.0, far, home, 2300.0, 2500.0, 5.0, distance_km=0.1),
    ]
    instance = MarketInstance.create([Driver("d", home, home, 0.0, 2600.0)], tasks, cost_model)
    assert list(instance.task_map("d").exit_ok) == [True, False, True]
    assert [list(s) for s in instance.task_network.successors] == [[1, 2], [2], []]
    assert_same_model(instance, objective, include_rationality)
