"""Tests for the greedy algorithm (Algorithm 1)."""

import pytest

from repro.core import Objective
from repro.offline import (
    GreedySolver,
    build_tight_example,
    greedy_assignment,
)
from repro.market import market_diameter

from ..conftest import build_chain_instance, build_random_instance


@pytest.fixture(scope="module")
def chain():
    return build_chain_instance()


class TestGreedyOnChainInstance:
    def test_assigns_chain_to_chainer(self, chain):
        solution = greedy_assignment(chain)
        solution.validate()
        assert solution.plan_for("chainer").task_indices == (0, 1)
        assert solution.plan_for("stranded").task_indices == ()
        assert solution.total_value == pytest.approx(10.0, rel=0.01)
        assert solution.serve_rate == 1.0

    def test_stats_reflect_work_done(self, chain):
        result = GreedySolver().solve(chain)
        assert result.stats.iterations == 1
        assert result.stats.drivers_assigned == 1
        assert result.stats.tasks_assigned == 2
        # Drivers whose task map admits no entry task ("stranded") are
        # prescreened out before any best-path computation.
        assert 1 <= result.stats.paths_recomputed <= chain.driver_count

    def test_social_welfare_objective(self, chain):
        solution = greedy_assignment(chain, objective=Objective.SOCIAL_WELFARE)
        solution.validate()
        assert solution.objective is Objective.SOCIAL_WELFARE
        # Without explicit WTP the two objectives coincide.
        assert solution.total_value == pytest.approx(
            greedy_assignment(chain).total_value
        )


class TestGreedyFeasibilityAndInvariants:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_solutions_are_feasible(self, seed):
        instance = build_random_instance(task_count=35, driver_count=9, seed=seed)
        solution = greedy_assignment(instance)
        solution.validate()

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_every_assigned_driver_earns_positive_profit(self, seed):
        instance = build_random_instance(task_count=35, driver_count=9, seed=seed)
        solution = greedy_assignment(instance)
        for plan in solution.iter_nonempty_plans():
            assert plan.profit > 0.0

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_no_task_served_twice(self, seed):
        instance = build_random_instance(task_count=35, driver_count=9, seed=seed)
        solution = greedy_assignment(instance)
        all_tasks = [m for plan in solution.plans for m in plan.task_indices]
        assert len(all_tasks) == len(set(all_tasks))

    def test_total_value_at_least_best_single_path(self):
        """The first greedy iteration takes the single best path over all
        drivers, and every later iteration adds a strictly positive path, so
        the total can never fall below any driver's individual best path."""
        from repro.offline import best_path

        instance = build_random_instance(task_count=40, driver_count=12, seed=6)
        solution = greedy_assignment(instance)
        best_single = max(
            best_path(instance.task_map(d.driver_id)).profit for d in instance.drivers
        )
        assert solution.total_value >= best_single - 1e-9

    def test_deterministic(self):
        instance = build_random_instance(task_count=30, driver_count=8, seed=7)
        a = greedy_assignment(instance)
        b = greedy_assignment(instance)
        assert a.assignment() == b.assignment()


class TestApproximationGuarantee:
    """Theorem 1: greedy >= OPT / (D + 1)."""

    @pytest.mark.parametrize("seed", [11, 12, 13, 14])
    def test_ratio_against_exact_optimum(self, seed):
        from repro.offline import exact_optimum

        instance = build_random_instance(task_count=14, driver_count=4, seed=seed)
        greedy = greedy_assignment(instance).total_value
        optimum = exact_optimum(instance).optimum
        diameter = market_diameter(instance)
        assert greedy <= optimum + 1e-6
        assert greedy >= optimum / (diameter + 1) - 1e-6

    def test_tight_example_ratio(self):
        example = build_tight_example(chain_length=4, epsilon=0.05)
        greedy = greedy_assignment(example.instance)
        greedy.validate()
        assert greedy.total_value == pytest.approx(example.expected_greedy_value, rel=1e-6)
        # The achieved ratio sits just above the theoretical 1/(D+1) bound.
        ratio = example.expected_greedy_value / example.expected_optimal_value
        assert example.theoretical_bound <= ratio <= example.theoretical_bound + 0.08

    def test_tight_example_worsens_with_chain_length(self):
        short = build_tight_example(chain_length=3, epsilon=0.02)
        long = build_tight_example(chain_length=8, epsilon=0.02)
        assert long.expected_ratio < short.expected_ratio
