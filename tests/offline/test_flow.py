"""The shard-level LP/min-cost-flow exact tier (``repro.offline.flow``).

Three concerns:

* correctness — the LP-tier optimum matches the MILP/brute force on sizes
  where those are tractable, and the certificate fields are honest;
* degenerate robustness — every edge case a spatial shard can produce
  (empty, single driver, single task, all-infeasible, zero-cost ties) must
  match greedy's short-circuit behaviour and never raise
  :class:`ExactSolverError`;
* determinism — tie-breaking is pinned so the distributed parity contracts
  can rely on bit-identical merges.
"""

import pytest

from repro.core import MarketSolution, Objective
from repro.offline import (
    DEFAULT_GAP_THRESHOLD,
    ExactSolverError,
    ShardBounds,
    exact_optimum,
    greedy_assignment,
    lagrangian_bound,
    lp_flow_optimum,
    relative_gap,
    solve_exact_tier,
)

from ..conftest import build_chain_instance, build_random_instance
from ..exact_oracle import brute_force_optimum


@pytest.fixture(scope="module")
def chain():
    return build_chain_instance()


@pytest.fixture(scope="module")
def small():
    return build_random_instance(task_count=20, driver_count=6, seed=31)


class TestRelativeGap:
    def test_zero_when_value_meets_bound(self):
        assert relative_gap(10.0, 10.0) == 0.0

    def test_clamped_at_zero_on_float_noise(self):
        assert relative_gap(10.0 + 1e-12, 10.0) == 0.0

    def test_positive_gap(self):
        assert relative_gap(9.0, 10.0) == pytest.approx(0.1)

    def test_zero_bound_does_not_divide_by_zero(self):
        assert relative_gap(0.0, 0.0) == 0.0


class TestLpFlowOptimum:
    def test_chain_matches_exact(self, chain):
        flow = lp_flow_optimum(chain)
        exact = exact_optimum(chain)
        assert flow.optimum == pytest.approx(exact.optimum, rel=1e-6)
        assert flow.solution.plan_for("chainer").task_indices == (0, 1)
        flow.solution.validate()

    def test_small_matches_exact(self, small):
        flow = lp_flow_optimum(small)
        exact = exact_optimum(small)
        assert flow.optimum == pytest.approx(exact.optimum, rel=1e-6, abs=1e-6)
        flow.solution.validate()

    def test_tiny_matches_brute_force(self):
        instance = build_random_instance(task_count=8, driver_count=3, seed=41)
        flow = lp_flow_optimum(instance)
        brute = brute_force_optimum(instance)
        assert flow.optimum == pytest.approx(brute.optimum, rel=1e-6, abs=1e-6)

    def test_bound_sandwich(self, small):
        greedy = greedy_assignment(small).total_value
        flow = lp_flow_optimum(small)
        assert greedy <= flow.optimum + 1e-6
        assert flow.optimum <= flow.upper_bound + 1e-6
        assert flow.optimality_gap >= 0.0

    def test_integral_certificate_closes_the_gap(self, small):
        flow = lp_flow_optimum(small)
        if flow.integral:
            assert flow.optimum == pytest.approx(flow.upper_bound, rel=1e-6)
            assert not flow.repaired
            assert flow.fractional_arc_count == 0

    def test_incumbent_floor(self, small):
        """Whatever the LP does, it never ships below a supplied incumbent."""
        incumbent = greedy_assignment(small)
        flow = lp_flow_optimum(small, incumbent=incumbent)
        assert flow.optimum >= incumbent.total_value - 1e-9

    def test_social_welfare_objective(self, small):
        flow = lp_flow_optimum(small, objective=Objective.SOCIAL_WELFARE)
        exact = exact_optimum(small, objective=Objective.SOCIAL_WELFARE)
        assert flow.optimum == pytest.approx(exact.optimum, rel=1e-6, abs=1e-6)


class TestDegenerateShards:
    """Satellite sweep: every degenerate shard shape the partitioner can
    produce must short-circuit exactly like greedy and never raise."""

    def test_no_drivers(self, chain):
        empty = chain.with_drivers([])
        flow = lp_flow_optimum(empty)
        assert flow.optimum == 0.0
        assert flow.solver_status == "empty"
        assert flow.integral and not flow.repaired
        solution, bounds = solve_exact_tier(empty)
        assert solution.total_value == 0.0
        assert bounds == ShardBounds.zero()

    def test_no_tasks(self, chain):
        empty = chain.with_tasks([])
        flow = lp_flow_optimum(empty)
        assert flow.optimum == 0.0
        assert flow.upper_bound == 0.0
        solution, bounds = solve_exact_tier(empty)
        assert solution.served_count == 0
        assert bounds.optimality_gap == 0.0

    def test_single_driver_single_task(self, chain):
        shard = chain.with_drivers([chain.drivers[0]]).with_tasks([chain.tasks[0]])
        flow = lp_flow_optimum(shard)
        greedy = greedy_assignment(shard)
        assert flow.optimum == pytest.approx(greedy.total_value, rel=1e-9)
        assert flow.solution.assignment() == greedy.assignment()

    def test_all_infeasible_tasks(self, chain):
        """Only the stranded driver: no task fits her window, so the exact
        tier must agree with greedy's empty answer, bound included."""
        stranded = next(d for d in chain.drivers if d.driver_id == "stranded")
        shard = chain.with_drivers([stranded])
        flow = lp_flow_optimum(shard)
        assert flow.optimum == 0.0
        assert flow.solution.served_count == 0
        assert flow.upper_bound <= 1e-9
        solution, bounds = solve_exact_tier(shard)
        assert solution.served_count == 0
        assert bounds.optimality_gap == 0.0

    def test_zero_cost_ties_are_deterministic(self, chain):
        """Two drivers with identical geometry competing for the same task:
        a degenerate tie the LP may resolve either way — the tier must pick
        the same winner every time."""
        from dataclasses import replace

        twin_a = replace(chain.drivers[0], driver_id="twin-a")
        twin_b = replace(chain.drivers[0], driver_id="twin-b")
        shard = chain.with_drivers([twin_a, twin_b]).with_tasks([chain.tasks[0]])
        first = lp_flow_optimum(shard)
        for _ in range(3):
            again = lp_flow_optimum(shard)
            assert again.solution.assignment() == first.solution.assignment()
            assert again.optimum == first.optimum

    def test_never_raises_exact_solver_error(self, chain):
        """The whole sweep above, again, under the tier entry point — the
        coordinator relies on lp/auto never needing a size guard."""
        shards = [
            chain,
            chain.with_drivers([]),
            chain.with_tasks([]),
            chain.with_drivers([chain.drivers[1]]),
            chain.with_tasks([chain.tasks[0]]),
        ]
        for shard in shards:
            for mode in ("lp", "auto"):
                try:
                    solution, bounds = solve_exact_tier(shard, mode=mode)
                except ExactSolverError as exc:  # pragma: no cover - the bug
                    pytest.fail(f"exact tier raised on a degenerate shard: {exc}")
                assert bounds.optimality_gap >= 0.0
                assert bounds.greedy_gap >= 0.0
                solution.validate()


class TestSolveExactTier:
    def test_lp_mode_sandwich(self, small):
        solution, bounds = solve_exact_tier(small, mode="lp")
        assert bounds.chosen_solver == "lp"
        assert bounds.lp_ran
        assert bounds.greedy_value <= bounds.lp_value + 1e-6
        assert bounds.lp_value <= bounds.upper_bound + 1e-6
        assert bounds.upper_bound <= bounds.lagrangian_bound + 1e-6
        assert solution.total_value == pytest.approx(bounds.lp_value)

    def test_auto_mode_skips_lp_on_loose_threshold(self, small):
        solution, bounds = solve_exact_tier(small, mode="auto", gap_threshold=1.0)
        assert bounds.chosen_solver == "greedy"
        assert not bounds.lp_ran
        assert bounds.lp_value == pytest.approx(bounds.greedy_value)
        assert solution.total_value == pytest.approx(bounds.greedy_value)

    def test_auto_mode_runs_lp_on_zero_threshold(self, small):
        greedy = greedy_assignment(small).total_value
        bound = lagrangian_bound(small, iterations=40, target_value=greedy).upper_bound
        solution, bounds = solve_exact_tier(small, mode="auto", gap_threshold=0.0)
        if relative_gap(greedy, bound) > 0.0:
            assert bounds.chosen_solver == "lp"
            assert bounds.lp_ran
        assert solution.total_value >= greedy - 1e-9

    def test_unknown_mode_rejected(self, small):
        with pytest.raises(ValueError, match="unknown exact-tier mode"):
            solve_exact_tier(small, mode="milp")

    def test_default_threshold_exported(self):
        assert 0.0 < DEFAULT_GAP_THRESHOLD < 1.0

    def test_determinism_across_repeat_solves(self, small):
        first_solution, first_bounds = solve_exact_tier(small)
        for _ in range(2):
            solution, bounds = solve_exact_tier(small)
            assert solution.assignment() == first_solution.assignment()
            assert bounds == first_bounds

    def test_bounds_as_dict_round_trip(self, small):
        _, bounds = solve_exact_tier(small)
        record = bounds.as_dict()
        assert record["optimality_gap"] >= 0.0
        assert record["upper_bound"] == pytest.approx(
            min(record["lp_bound"], record["lagrangian_bound"])
        )
        assert set(record) >= {
            "greedy_value", "lp_value", "lp_bound", "lagrangian_bound",
            "chosen_solver", "lp_ran", "lp_integral", "lp_repaired",
        }

    def test_returns_market_solution(self, small):
        solution, _ = solve_exact_tier(small)
        assert isinstance(solution, MarketSolution)
        solution.validate()


class TestOneExactTier:
    """The arc-flow program has one solve (``ArcFlowModel.solve``), one
    decoded result (``ExactResult``) and one error (``ExactSolverError``).
    The LP bound's public entry is ``compute_upper_bound``; the exhaustive
    references live in ``tests/exact_oracle.py``."""

    REMOVED = (
        "lp_relaxation_bound",
        "brute_force_optimum",
        "enumerate_paths",
        "RelaxationResult",
        "RelaxationError",
        "FlowResult",
        "FlowSolverError",
    )

    @pytest.mark.parametrize("name", REMOVED)
    def test_removed_names_are_not_exported(self, name):
        import repro
        import repro.offline

        assert not hasattr(repro, name)
        assert not hasattr(repro.offline, name)

    @pytest.mark.parametrize("module", ["repro.offline.exact", "repro.offline.relaxation"])
    def test_removed_modules_do_not_import(self, module):
        import importlib

        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(module)

    def test_one_solve_on_the_model(self):
        from repro.offline import ArcFlowModel

        assert not hasattr(ArcFlowModel, "solve_lp")
        assert callable(ArcFlowModel.solve)

    def test_wrapper_pass_through_options_are_rejected(self, small):
        with pytest.raises(TypeError, match="include_rationality"):
            lp_flow_optimum(small, include_rationality=False)

    def test_exact_optimum_carries_its_dual_bound(self, small):
        exact = exact_optimum(small)
        assert exact.upper_bound >= exact.optimum
        assert exact.optimality_gap <= 1e-4  # HiGHS's default relative MIP gap
        assert exact.integral and not exact.repaired
        assert exact.fractional_arc_count == 0
