"""Consistency checks between the arc-flow formulation and the path model.

Any feasible assignment (e.g. the greedy solution) must be expressible as a
0/1 arc-flow vector that (a) satisfies every constraint row of the model and
(b) reproduces exactly the same objective value.  This pins the ILP matrices
to the path-based profit arithmetic used everywhere else in the library.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.market.taskmap import SINK_NODE, SOURCE_NODE
from repro.offline import build_arc_flow_model, greedy_assignment

from ..conftest import build_chain_instance, build_random_instance
from ..test_properties import build_instance


def assignment_to_arc_vector(model, assignment):
    """Encode a ``driver -> task list`` assignment as a 0/1 arc-flow vector."""
    values = np.zeros(model.variable_count)
    assigned = dict(assignment)
    for driver in model.instance.drivers:
        path = list(assigned.get(driver.driver_id, ()))
        if not path:
            values[model.arcs.index((driver.driver_id, SOURCE_NODE, SINK_NODE))] = 1.0
            continue
        values[model.arcs.index((driver.driver_id, SOURCE_NODE, path[0]))] = 1.0
        for tail, head in zip(path[:-1], path[1:]):
            values[model.arcs.index((driver.driver_id, tail, head))] = 1.0
        values[model.arcs.index((driver.driver_id, path[-1], SINK_NODE))] = 1.0
    return values


def assert_flow_is_feasible(model, values):
    eq = model.A_eq @ values
    assert np.allclose(eq, model.b_eq, atol=1e-9)
    ub = model.A_ub @ values
    assert np.all(ub <= model.b_ub + 1e-9)


class TestEncodingOnFixedInstances:
    def test_chain_greedy_solution_encodes_feasibly(self):
        instance = build_chain_instance()
        model = build_arc_flow_model(instance)
        solution = greedy_assignment(instance)
        values = assignment_to_arc_vector(model, solution.assignment())
        assert_flow_is_feasible(model, values)
        objective = float(model.objective @ values) + model.constant
        assert objective == pytest.approx(solution.total_value, rel=1e-9)

    def test_idle_everyone_encodes_to_zero_objective(self):
        instance = build_random_instance(task_count=15, driver_count=4, seed=111)
        model = build_arc_flow_model(instance)
        values = assignment_to_arc_vector(model, {})
        assert_flow_is_feasible(model, values)
        assert float(model.objective @ values) + model.constant == pytest.approx(0.0, abs=1e-9)

    def test_decoding_inverts_encoding(self):
        instance = build_random_instance(task_count=20, driver_count=5, seed=112)
        model = build_arc_flow_model(instance)
        solution = greedy_assignment(instance)
        values = assignment_to_arc_vector(model, solution.assignment())
        decoded = model.solution_to_assignment(values)
        assert decoded == solution.assignment()


class TestEncodingProperty:
    @given(
        st.tuples(
            st.integers(min_value=0, max_value=5_000),
            st.integers(min_value=3, max_value=12),
            st.integers(min_value=1, max_value=4),
        )
    )
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_greedy_solution_always_encodes_consistently(self, params):
        seed, tasks, drivers = params
        instance = build_instance(seed, tasks, drivers)
        model = build_arc_flow_model(instance)
        solution = greedy_assignment(instance)
        values = assignment_to_arc_vector(model, solution.assignment())
        assert_flow_is_feasible(model, values)
        objective = float(model.objective @ values) + model.constant
        assert objective == pytest.approx(solution.total_value, rel=1e-9, abs=1e-9)
