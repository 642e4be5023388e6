"""Tests for MarketSolution, DriverPlan and the objective helpers."""

import dataclasses
import importlib

import pytest

from repro.core import (
    InfeasibleSolutionError,
    MarketSolution,
    Objective,
    assignment_value,
    consumer_surplus,
    path_value,
    total_revenue,
)

from repro.distributed import ShardResult
from repro.market import Driver, MarketInstance
from repro.offline import greedy_assignment
from repro.online import BatchConfig, BatchedSimulator, MaxMarginDispatcher, OnlineSimulator

from ..conftest import build_chain_instance, build_random_instance
from ..taskmap_oracle import path_profit


@pytest.fixture(scope="module")
def chain():
    return build_chain_instance()


class TestObjectives:
    def test_enum_flags(self):
        assert not Objective.DRIVERS_PROFIT.uses_valuation
        assert Objective.SOCIAL_WELFARE.uses_valuation

    def test_path_value_matches_task_map(self, chain):
        expected = path_profit(chain.task_map("chainer"), [0, 1])
        assert path_value(chain, "chainer", [0, 1]) == pytest.approx(expected)

    def test_path_value_rejects_infeasible_and_unknown(self, chain):
        with pytest.raises(ValueError):
            path_value(chain, "chainer", [1, 0])
        with pytest.raises(ValueError):
            path_value(chain, "stranded", [0])
        with pytest.raises(KeyError):
            path_value(chain, "nobody", [0])

    def test_assignment_value_sums_paths(self, chain):
        value = assignment_value(chain, {"chainer": [0, 1]})
        assert value == pytest.approx(path_profit(chain.task_map("chainer"), [0, 1]))
        assert assignment_value(chain, {}) == 0.0

    def test_total_revenue_and_surplus(self, chain):
        assignment = {"chainer": [0, 1]}
        assert total_revenue(chain, assignment) == pytest.approx(10.0)
        # No WTP recorded, so consumer surplus is zero.
        assert consumer_surplus(chain, assignment) == pytest.approx(0.0)


class TestMarketSolution:
    def test_from_assignment_builds_all_plans(self, chain):
        solution = MarketSolution.from_assignment(chain, {"chainer": (0, 1)})
        assert len(solution.plans) == chain.driver_count
        assert solution.plan_for("chainer").task_indices == (0, 1)
        assert solution.plan_for("stranded").task_indices == ()
        with pytest.raises(KeyError):
            solution.plan_for("nobody")

    def test_empty_solution(self, chain):
        solution = MarketSolution.empty(chain)
        assert solution.total_value == 0.0
        assert solution.served_count == 0
        assert solution.serve_rate == 0.0
        assert solution.is_feasible()

    def test_metrics(self, chain):
        solution = MarketSolution.from_assignment(chain, {"chainer": (0, 1)})
        assert solution.total_value == pytest.approx(10.0, rel=0.01)
        assert solution.total_revenue == pytest.approx(10.0)
        assert solution.served_count == 2
        assert solution.serve_rate == pytest.approx(1.0)
        assert solution.active_driver_count == 1
        assert solution.revenue_per_driver() == pytest.approx(5.0)
        assert solution.tasks_per_driver() == pytest.approx(1.0)
        summary = solution.summary()
        assert summary["total_value"] == pytest.approx(solution.total_value)
        assert summary["serve_rate"] == pytest.approx(1.0)

    def test_assignment_view_skips_idle_drivers(self, chain):
        solution = MarketSolution.from_assignment(chain, {"chainer": (0,)})
        assert solution.assignment() == {"chainer": (0,)}
        assert solution.served_tasks() == {0}

    def test_validate_accepts_feasible_solution(self, chain):
        MarketSolution.from_assignment(chain, {"chainer": (0, 1)}).validate()

    def test_validate_rejects_duplicate_task(self, chain):
        solution = MarketSolution.from_assignment(chain, {"chainer": (0,)})
        # Manually craft a conflicting solution: both drivers claim task 0.
        bad = MarketSolution(
            instance=chain,
            plans=(
                solution.plan_for("chainer"),
                solution.plan_for("chainer"),
            ),
        )
        with pytest.raises(InfeasibleSolutionError):
            bad.validate()

    def test_validate_rejects_infeasible_path(self, chain):
        bad = MarketSolution.from_assignment(chain, {"stranded": (0,)})
        with pytest.raises(InfeasibleSolutionError):
            bad.validate()
        # The idle plan for the same driver is fine.
        MarketSolution.from_assignment(chain, {}).validate()

    def test_validate_rejects_unknown_driver(self, chain):
        from repro.core.solution import DriverPlan

        bad = MarketSolution(instance=chain, plans=(DriverPlan("ghost", (0,), 1.0),))
        with pytest.raises(InfeasibleSolutionError):
            bad.validate()

    def test_validate_rejects_reversed_chain(self, chain):
        reversed_chain = MarketSolution.from_assignment(chain, {"chainer": (1, 0)})
        with pytest.raises(InfeasibleSolutionError):
            reversed_chain.validate()

    def test_is_feasible_boolean(self, chain):
        good = MarketSolution.from_assignment(chain, {"chainer": (0,)})
        assert good.is_feasible()
        from repro.core.solution import DriverPlan

        bad = MarketSolution(instance=chain, plans=(DriverPlan("ghost", (), 0.0),))
        assert not bad.is_feasible()

    def test_serve_rate_on_empty_task_set(self):
        instance = build_random_instance(task_count=5, driver_count=2, seed=20).with_tasks([])
        solution = MarketSolution.empty(instance)
        assert solution.serve_rate == 1.0


class TestTaskIndexRange:
    """Indices outside ``[0, M)`` are not tasks: a negative one used to alias
    the task ``M`` places later, an oversized one raised ``IndexError``."""

    def test_negative_index_is_rejected(self, chain):
        solution = MarketSolution.from_assignment(chain, {"chainer": (-2, 1)})
        assert solution.plan_for("chainer").profit == 0.0
        with pytest.raises(InfeasibleSolutionError, match="task index -2"):
            solution.validate()
        assert not solution.is_feasible()

    def test_negative_index_cannot_serve_a_task_twice(self, chain):
        chainer = chain.drivers[0]
        twin = Driver("twin", chainer.source, chainer.destination, chainer.start_ts, chainer.end_ts)
        market = chain.with_drivers([chainer, twin])
        solution = MarketSolution.from_assignment(market, {"chainer": (0,), "twin": (-2,)})
        assert solution.plan_for("twin").profit == 0.0
        with pytest.raises(InfeasibleSolutionError, match="task index -2"):
            solution.validate()

    def test_out_of_range_index_is_lenient_then_rejected(self, chain):
        solution = MarketSolution.from_assignment(chain, {"chainer": (0, 2)})
        assert solution.plan_for("chainer").profit == 0.0
        with pytest.raises(InfeasibleSolutionError, match="task index 2"):
            solution.validate()


class TestNoTaskNetwork:
    """Pricing and checking plans never builds the task network or the
    fleet's task maps (``MarketInstance`` caches both in ``__dict__``)."""

    @staticmethod
    def assert_unbuilt(instance):
        assert "task_network" not in instance.__dict__
        assert "task_maps" not in instance.__dict__

    def test_empty_solution(self):
        instance = build_random_instance(task_count=20, driver_count=5, seed=21)
        solution = MarketSolution.empty(instance)
        assert solution.total_value == 0.0
        self.assert_unbuilt(instance)

    def test_from_assignment_and_validate(self):
        solved = build_random_instance(task_count=30, driver_count=8, seed=3)
        assignment = greedy_assignment(solved).assignment()
        assert assignment
        fresh = MarketInstance(solved.drivers, solved.tasks, solved.cost_model)
        solution = MarketSolution.from_assignment(fresh, assignment)
        solution.validate()
        assert solution.total_value == assignment_value(fresh, assignment)
        self.assert_unbuilt(fresh)


class TestOneResultType:
    """Every algorithm returns a :class:`MarketSolution`: the online result
    type, its serializer, the shard results' dicts, the metric protocol and
    the algorithm-result union are gone."""

    def test_online_outcome_module_does_not_import(self):
        with pytest.raises(ImportError):
            importlib.import_module("repro.online.outcome")

    @pytest.mark.parametrize(
        "module, name",
        [
            ("repro", "OnlineOutcome"),
            ("repro.online", "OnlineOutcome"),
            ("repro.online", "OnlineDriverRecord"),
            ("repro.io", "outcome_to_dict"),
            ("repro.io", "outcome_from_dict"),
            ("repro.io.serialization", "outcome_to_dict"),
            ("repro.io.serialization", "outcome_from_dict"),
            ("repro.distributed.stream", "priced_solution"),
            ("repro.distributed.coordinator", "priced_solution"),
            ("repro.distributed", "translate_assignment"),
            ("repro.distributed.partition", "translate_assignment"),
            ("repro.analysis.metrics", "SolutionLike"),
            ("repro.experiments.algorithms", "AlgorithmResult"),
        ],
    )
    def test_removed_names_are_gone(self, module, name):
        assert not hasattr(importlib.import_module(module), name)

    def test_simulators_return_market_solutions(self, chain):
        for solution in (
            OnlineSimulator(chain, MaxMarginDispatcher()).run(),
            BatchedSimulator(chain, BatchConfig(window_s=120.0)).run(),
        ):
            assert type(solution) is MarketSolution
            assert [p.driver_id for p in solution.plans] == [d.driver_id for d in chain.drivers]
            assert all(len(p.arrival_times) == p.task_count for p in solution.plans)
            assert solution.served_count == 2 and solution.rejected_tasks == ()

    def test_one_summary_for_every_algorithm(self, chain):
        offline = greedy_assignment(chain).summary()
        online = OnlineSimulator(chain, MaxMarginDispatcher()).run().summary()
        assert list(offline) == list(online)
        assert {"consumer_surplus", "rejected_tasks", "mean_wait_s"} <= set(online)
        assert offline["mean_wait_s"] == 0.0 < online["mean_wait_s"]

    def test_shard_results_carry_plans(self):
        names = {f.name for f in dataclasses.fields(ShardResult)}
        assert "plans" in names
        assert not names & {"assignment", "driver_profits", "total_value", "served_count"}
