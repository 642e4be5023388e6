"""Tests for the arc-flow formulation, LP relaxation, exact MILP and the
Lagrangian bound — and the ordering invariants between them.

The chain of inequalities exercised here is the backbone of the paper's
evaluation methodology:

    greedy value  <=  Z* (exact optimum)  <=  Z*_f (LP relaxation)
                                         <=  L(lambda) (any Lagrangian bound)
"""

import numpy as np
import pytest
from scipy import optimize

from repro.analysis import compute_upper_bound
from repro.core import MarketSolution, Objective
from repro.market.taskmap import SINK_NODE, SOURCE_NODE
from repro.offline import (
    ExactSolverError,
    build_arc_flow_model,
    exact_optimum,
    greedy_assignment,
    lagrangian_bound,
)

from ..conftest import build_chain_instance, build_random_instance, plan_of
from ..exact_oracle import brute_force_optimum
from ..taskmap_oracle import path_profit


@pytest.fixture(scope="module")
def chain():
    return build_chain_instance()


@pytest.fixture(scope="module")
def small():
    return build_random_instance(task_count=20, driver_count=6, seed=31)


class TestArcFlowModel:
    def test_chain_model_shape(self, chain):
        model = build_arc_flow_model(chain)
        # chainer: direct, source->0, source->1, 0->sink, 1->sink, 0->1 = 6 arcs
        # stranded: direct arc only.
        assert model.variable_count == 7
        assert model.constant == pytest.approx(
            sum(chain.task_map(d.driver_id).direct_leg.cost for d in chain.drivers)
        )
        assert model.A_eq.shape[0] == len(model.b_eq)
        assert model.A_ub.shape[0] == len(model.b_ub)

    def test_solution_decoding(self, chain):
        model = build_arc_flow_model(chain)
        values = np.zeros(model.variable_count)
        values[model.arcs.index(("stranded", SOURCE_NODE, SINK_NODE))] = 1.0
        values[model.arcs.index(("chainer", SOURCE_NODE, 0))] = 1.0
        values[model.arcs.index(("chainer", 0, 1))] = 1.0
        values[model.arcs.index(("chainer", 1, SINK_NODE))] = 1.0
        assignment = model.solution_to_assignment(values)
        assert assignment == {"chainer": (0, 1)}

    def test_objective_of_decoded_chain_matches_path_profit(self, chain):
        model = build_arc_flow_model(chain)
        values = np.zeros(model.variable_count)
        values[model.arcs.index(("stranded", SOURCE_NODE, SINK_NODE))] = 1.0
        values[model.arcs.index(("chainer", SOURCE_NODE, 0))] = 1.0
        values[model.arcs.index(("chainer", 0, 1))] = 1.0
        values[model.arcs.index(("chainer", 1, SINK_NODE))] = 1.0
        objective_value = float(model.objective @ values) + model.constant
        expected = path_profit(chain.task_map("chainer"), [0, 1])
        assert objective_value == pytest.approx(expected, rel=1e-9)


class TestLpRelaxation:
    def test_chain_bound_equals_integral_optimum(self, chain):
        result = build_arc_flow_model(chain).solve()
        assert result.upper_bound == pytest.approx(
            path_profit(chain.task_map("chainer"), [0, 1]), rel=1e-6
        )
        assert result.fractional_arc_count >= 0

    def test_bound_dominates_greedy(self, small):
        greedy = greedy_assignment(small).total_value
        bound = compute_upper_bound(small)
        assert bound >= greedy - 1e-6

    def test_bound_dominates_exact(self, small):
        exact = exact_optimum(small).optimum
        bound = compute_upper_bound(small)
        assert bound >= exact - 1e-6

    def test_rationality_flag_only_tightens(self, small):
        with_ir = build_arc_flow_model(small, include_rationality=True).solve().upper_bound
        without_ir = build_arc_flow_model(small, include_rationality=False).solve().upper_bound
        assert with_ir <= without_ir + 1e-6

    def test_social_welfare_bound_at_least_profit_bound(self, small):
        profit = compute_upper_bound(small, objective=Objective.DRIVERS_PROFIT)
        welfare = compute_upper_bound(small, objective=Objective.SOCIAL_WELFARE)
        assert welfare >= profit - 1e-6

    def test_no_driver_instance(self, chain):
        empty = chain.with_drivers([])
        assert compute_upper_bound(empty) == pytest.approx(0.0)


class TestExactSolver:
    def test_chain_optimum(self, chain):
        result = exact_optimum(chain)
        result.solution.validate()
        assert result.optimum == pytest.approx(
            path_profit(chain.task_map("chainer"), [0, 1]), rel=1e-6
        )
        assert plan_of(result.solution, "chainer").task_indices == (0, 1)

    def test_exact_at_least_greedy(self, small):
        greedy = greedy_assignment(small).total_value
        exact = exact_optimum(small).optimum
        assert exact >= greedy - 1e-6

    def test_exact_solution_is_feasible(self, small):
        result = exact_optimum(small)
        result.solution.validate()
        assert result.solution.total_value == pytest.approx(result.optimum, rel=1e-6)

    def test_size_guard(self, small):
        with pytest.raises(ExactSolverError):
            exact_optimum(small, size_limit=(2, 5))

    def test_time_limited_incumbent_is_not_the_optimum(self, small, monkeypatch):
        """HiGHS stopped by its time limit returns status 1 with an incumbent
        ``x``; that incumbent is not ``Z*``, so the solver must raise."""

        def stopped_by_time_limit(c, **kwargs):
            return optimize.OptimizeResult(
                x=np.zeros(len(c)),
                fun=0.0,
                status=1,
                success=False,
                message="Time limit reached. (HiGHS Status 13: model_status is Time limit reached)",
            )

        monkeypatch.setattr("repro.offline.formulation.optimize.milp", stopped_by_time_limit)
        with pytest.raises(ExactSolverError, match="Time limit reached"):
            exact_optimum(small)

    def test_matches_brute_force_on_tiny_instance(self):
        instance = build_random_instance(task_count=8, driver_count=3, seed=41)
        milp = exact_optimum(instance)
        brute = brute_force_optimum(instance)
        assert milp.optimum == pytest.approx(brute.optimum, rel=1e-6, abs=1e-6)
        brute.solution.validate()

    def test_empty_market(self, chain):
        empty = chain.with_drivers([])
        result = exact_optimum(empty)
        assert result.optimum == pytest.approx(0.0)
        assert isinstance(result.solution, MarketSolution)


class TestLagrangianBound:
    def test_valid_upper_bound(self, small):
        exact = exact_optimum(small).optimum
        bound = lagrangian_bound(small, iterations=25).upper_bound
        assert bound >= exact - 1e-6

    def test_polyak_step_tightens_bound(self, small):
        greedy = greedy_assignment(small).total_value
        plain = lagrangian_bound(small, iterations=25).upper_bound
        polyak = lagrangian_bound(small, iterations=25, target_value=greedy).upper_bound
        assert polyak >= greedy - 1e-6
        assert polyak <= plain + 1e-6

    def test_trajectory_recorded(self, small):
        result = lagrangian_bound(small, iterations=10)
        assert result.iterations == 10
        assert len(result.bounds_per_iteration) == 10
        assert result.upper_bound == pytest.approx(min(result.bounds_per_iteration))
        assert (result.multipliers >= 0).all()

    def test_invalid_arguments(self, small):
        with pytest.raises(ValueError):
            lagrangian_bound(small, iterations=0)
        with pytest.raises(ValueError):
            lagrangian_bound(small, seed_multipliers=np.array([1.0]))
        with pytest.raises(ValueError):
            lagrangian_bound(
                small, seed_multipliers=-np.ones(small.task_count)
            )

    def test_zero_multipliers_give_sum_of_best_paths(self, small):
        """The first iteration (lambda = 0) is exactly the sum of every
        driver's unconstrained best path, which is itself a valid bound."""
        from repro.offline import best_path

        result = lagrangian_bound(small, iterations=1)
        expected = sum(
            best_path(small.task_map(d.driver_id)).profit for d in small.drivers
        )
        assert result.bounds_per_iteration[0] == pytest.approx(expected, rel=1e-9)

    def test_bound_not_above_lp_plus_duality_gap_margin(self, small):
        """With the Polyak step the Lagrangian bound should land in the same
        ballpark as the LP bound (they coincide at the optimum multipliers)."""
        greedy = greedy_assignment(small).total_value
        lp = compute_upper_bound(small)
        lagr = lagrangian_bound(small, iterations=60, target_value=greedy).upper_bound
        assert lagr >= lp - 1e-6
        assert lagr <= lp * 1.5 + 1.0


class TestLagrangianConvergence:
    """Convergence behaviour of the subgradient loop (exact-tier satellite):
    the *reported* bound is a running minimum over the trajectory, so it is
    monotone by construction — and no iterate may ever dip below a feasible
    incumbent, or the "bound" would not be one."""

    def test_running_minimum_is_monotone_non_increasing(self, small):
        result = lagrangian_bound(small, iterations=30)
        best_so_far = np.minimum.accumulate(result.bounds_per_iteration)
        assert (np.diff(best_so_far) <= 1e-9).all()
        assert result.upper_bound == pytest.approx(best_so_far[-1])

    def test_no_iterate_below_the_incumbent(self, small):
        """Every L(lambda_k) is a valid upper bound on Z*, hence on any
        feasible value — including greedy's — at every single iteration."""
        greedy = greedy_assignment(small).total_value
        for target in (None, greedy):
            result = lagrangian_bound(small, iterations=30, target_value=target)
            for k, bound in enumerate(result.bounds_per_iteration):
                assert bound >= greedy - 1e-6, f"iterate {k} dipped below greedy"

    def test_no_iterate_below_the_exact_optimum(self, small):
        exact = exact_optimum(small).optimum
        result = lagrangian_bound(small, iterations=30, target_value=exact)
        assert min(result.bounds_per_iteration) >= exact - 1e-6

    def test_more_iterations_never_loosen_the_bound(self, small):
        greedy = greedy_assignment(small).total_value
        bounds = [
            lagrangian_bound(small, iterations=n, target_value=greedy).upper_bound
            for n in (1, 5, 15, 40)
        ]
        assert (np.diff(bounds) <= 1e-9).all()

    def test_trajectory_prefix_property(self, small):
        """Iterate k depends only on iterates < k, so a shorter run is a
        strict prefix of a longer one — the determinism the per-shard bounds
        in parity contract 17 rely on."""
        greedy = greedy_assignment(small).total_value
        short = lagrangian_bound(small, iterations=8, target_value=greedy)
        long = lagrangian_bound(small, iterations=20, target_value=greedy)
        assert long.bounds_per_iteration[:8] == short.bounds_per_iteration

    def test_trajectory_is_pinned(self):
        """The subgradient loop and the DAG program under it
        (``best_path(values=...)``) reproduce these iterates — recorded at
        commit 7d36ba1 — bit for bit, under both step rules."""
        instance = build_random_instance(task_count=30, driver_count=8, seed=5)
        plain = lagrangian_bound(instance, iterations=6)
        assert plain.bounds_per_iteration == (
            57.72363199430205,
            42.103069118137,
            37.83099728018678,
            36.91238236146923,
            35.495069416752315,
            34.81270755241293,
        )
        greedy = greedy_assignment(instance).total_value
        polyak = lagrangian_bound(instance, iterations=6, target_value=greedy)
        assert polyak.bounds_per_iteration == (
            57.72363199430205,
            44.35107658031977,
            39.89723237577723,
            37.34894217932373,
            35.73278173147854,
            35.64370895055106,
        )
