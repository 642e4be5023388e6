"""Property-test harness pinning the exact tier's bound sandwich.

Hypothesis draws random shard instances (through the same trace pipeline the
scenario compiler uses, so the geometry is realistic) and asserts the
invariants the distributed coordinator's parity contract 17 leans on:

* the sandwich ``greedy <= LP-tier value <= Z*_f <= Lagrangian bound`` holds
  on every instance, for both objectives;
* on instances small enough to brute-force, the LP tier's certified optimum
  equals the true optimum;
* tie-breaking is seed-deterministic — the same instance always yields the
  same assignment, which is what makes sharded merges bit-identical.

The ``repro-ci`` profile in ``tests/conftest.py`` derandomises the example
stream, so CI and local runs see identical draws.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Objective
from repro.offline import (
    greedy_assignment,
    lagrangian_bound,
    lp_flow_optimum,
    solve_exact_tier,
)

from ..conftest import build_random_instance
from ..exact_oracle import brute_force_optimum

TOL = 1e-6

#: Shard-sized instances: big enough to exercise chaining, small enough that
#: hypothesis can afford dozens of LP solves.
shard_instances = st.builds(
    build_random_instance,
    task_count=st.integers(min_value=2, max_value=18),
    driver_count=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**16),
)

#: Tiny instances where ``brute_force_optimum`` enumerates every path.
tiny_instances = st.builds(
    build_random_instance,
    task_count=st.integers(min_value=1, max_value=7),
    driver_count=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**16),
)


class TestSandwichInvariant:
    @given(instance=shard_instances)
    @settings(max_examples=25)
    def test_greedy_below_lp_below_bounds(self, instance):
        greedy = greedy_assignment(instance).total_value
        solution, bounds = solve_exact_tier(instance, mode="lp")
        assert bounds.greedy_value == pytest.approx(greedy, rel=1e-9, abs=TOL)
        assert bounds.greedy_value <= bounds.lp_value + TOL
        assert bounds.lp_value <= bounds.lp_bound + TOL
        assert bounds.lp_bound <= bounds.lagrangian_bound + TOL
        assert bounds.optimality_gap >= 0.0
        assert bounds.greedy_gap >= 0.0
        assert solution.total_value == pytest.approx(bounds.lp_value, rel=1e-9, abs=TOL)
        solution.validate()

    @given(instance=shard_instances, threshold=st.floats(min_value=0.0, max_value=0.5))
    @settings(max_examples=15)
    def test_auto_mode_preserves_the_sandwich(self, instance, threshold):
        solution, bounds = solve_exact_tier(instance, mode="auto", gap_threshold=threshold)
        assert bounds.greedy_value <= bounds.lp_value + TOL
        assert bounds.lp_value <= bounds.upper_bound + TOL
        assert bounds.chosen_solver in ("greedy", "lp")
        if bounds.chosen_solver == "greedy":
            assert not bounds.lp_ran
            # The skip is only allowed when the certified gap clears the knob.
            assert bounds.greedy_gap <= threshold + TOL
        solution.validate()

    @given(instance=shard_instances)
    @settings(max_examples=10)
    def test_social_welfare_sandwich(self, instance):
        objective = Objective.SOCIAL_WELFARE
        greedy = greedy_assignment(instance, objective=objective).total_value
        flow = lp_flow_optimum(instance, objective=objective)
        lagr = lagrangian_bound(
            instance, objective, iterations=30, target_value=greedy
        ).upper_bound
        assert greedy <= flow.optimum + TOL
        assert flow.optimum <= flow.upper_bound + TOL
        assert flow.optimum <= lagr + TOL


class TestExactnessOnSmallInstances:
    @given(instance=tiny_instances)
    @settings(max_examples=20)
    def test_lp_tier_equals_brute_force(self, instance):
        flow = lp_flow_optimum(instance)
        brute = brute_force_optimum(instance)
        assert flow.optimum == pytest.approx(brute.optimum, rel=1e-6, abs=TOL)

    @given(instance=tiny_instances)
    @settings(max_examples=10)
    def test_integral_vertices_close_the_gap(self, instance):
        flow = lp_flow_optimum(instance)
        if flow.integral:
            assert flow.optimality_gap <= 1e-6


class TestSeedDeterminism:
    @given(
        task_count=st.integers(min_value=2, max_value=15),
        driver_count=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=15)
    def test_rebuilt_instance_resolves_identically(self, task_count, driver_count, seed):
        """Building the same instance twice and solving each once must give
        byte-equal assignments — the property the process-pool parity gate
        (contract 17) reduces to."""
        first_instance = build_random_instance(task_count, driver_count, seed)
        second_instance = build_random_instance(task_count, driver_count, seed)
        first_solution, first_bounds = solve_exact_tier(first_instance)
        second_solution, second_bounds = solve_exact_tier(second_instance)
        assert first_solution.assignment() == second_solution.assignment()
        assert first_bounds == second_bounds
