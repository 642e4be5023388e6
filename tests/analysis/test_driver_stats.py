"""Tests for driver-level fleet statistics."""

import pytest

from repro.analysis import driver_workload, fleet_stats, gini_coefficient
from repro.offline import greedy_assignment
from repro.online import MaxMarginDispatcher, run_online

from ..conftest import build_chain_instance, build_random_instance


@pytest.fixture(scope="module")
def chain():
    return build_chain_instance()


@pytest.fixture(scope="module")
def random_instance():
    return build_random_instance(task_count=40, driver_count=10, seed=91)


class TestGini:
    def test_perfect_equality(self):
        assert gini_coefficient([5.0, 5.0, 5.0, 5.0]) == pytest.approx(0.0, abs=1e-9)

    def test_maximal_inequality_approaches_one(self):
        values = [0.0] * 99 + [100.0]
        assert gini_coefficient(values) == pytest.approx(0.99, abs=0.01)

    def test_known_value(self):
        # For [1, 3], mean absolute difference = 2, mean = 2 -> Gini = 0.25.
        assert gini_coefficient([1.0, 3.0]) == pytest.approx(0.25)

    def test_empty_and_zero_samples(self):
        assert gini_coefficient([]) == 0.0
        assert gini_coefficient([0.0, 0.0]) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            gini_coefficient([-1.0, 2.0])

    def test_scale_invariance(self):
        values = [1.0, 2.0, 7.0, 4.0]
        assert gini_coefficient(values) == pytest.approx(
            gini_coefficient([10 * v for v in values]), rel=1e-9
        )


class TestDriverWorkload:
    def test_idle_driver(self, chain):
        workload = driver_workload(chain, "stranded", ())
        assert workload.task_count == 0
        assert workload.revenue == 0.0
        assert workload.total_km == 0.0
        assert workload.empty_ratio == 0.0
        assert workload.utilization == 0.0

    def test_chain_driver_workload_arithmetic(self, chain):
        """The chainer drives 10 km of service with ~0 empty km."""
        workload = driver_workload(chain, "chainer", (0, 1))
        assert workload.task_count == 2
        assert workload.revenue == pytest.approx(10.0)
        assert workload.service_km == pytest.approx(10.0, rel=0.01)
        assert workload.empty_km == pytest.approx(0.0, abs=0.05)
        assert workload.empty_ratio == pytest.approx(0.0, abs=0.01)
        assert 0.0 < workload.utilization <= 1.0

    def test_single_task_has_empty_leg_home(self, chain):
        workload = driver_workload(chain, "chainer", (0,))
        # She must still drive the 5 km from the drop-off to her destination.
        assert workload.empty_km == pytest.approx(5.0, rel=0.02)
        assert 0.0 < workload.empty_ratio < 1.0


class TestFleetStats:
    def test_greedy_fleet_stats(self, random_instance):
        solution = greedy_assignment(random_instance)
        stats = fleet_stats(random_instance, solution.assignment())
        assert len(stats.workloads) == random_instance.driver_count
        assert 0.0 < stats.active_fraction <= 1.0
        assert 0.0 <= stats.gini_revenue <= 1.0
        assert 0.0 <= stats.mean_empty_ratio <= 1.0
        assert 0.0 < stats.mean_utilization <= 1.0
        assert stats.total_service_km > 0.0
        record = stats.as_dict()
        assert record["drivers"] == random_instance.driver_count

    def test_online_outcome_compatible(self, random_instance):
        outcome = run_online(random_instance, MaxMarginDispatcher())
        stats = fleet_stats(random_instance, outcome.assignment())
        served_revenue = sum(
            random_instance.tasks[m].price for m in outcome.served_tasks()
        )
        assert sum(w.revenue for w in stats.workloads) == pytest.approx(served_revenue, rel=1e-9)

    def test_workload_lookup(self, random_instance):
        stats = fleet_stats(random_instance, {})
        first = random_instance.drivers[0].driver_id
        assert stats.workload_for(first).task_count == 0
        with pytest.raises(KeyError):
            stats.workload_for("ghost")

    def test_empty_assignment_has_zero_activity(self, random_instance):
        stats = fleet_stats(random_instance, {})
        assert stats.active_fraction == 0.0
        assert stats.gini_revenue == 0.0
        assert stats.total_service_km == 0.0

    def test_reads_columns_not_the_whole_day_network(self):
        """A fleet summary reads the drivers and the per-task columns only;
        its numbers equal those of a twin whose network is already built."""
        fresh = build_random_instance(task_count=40, driver_count=10, seed=91)
        built = build_random_instance(task_count=40, driver_count=10, seed=91)
        built.task_network
        assignment = run_online(fresh, MaxMarginDispatcher()).assignment()
        stats = fleet_stats(fresh, assignment)
        assert "task_network" not in fresh.__dict__
        assert "task_maps" not in fresh.__dict__
        assert stats == fleet_stats(built, assignment)
        with pytest.raises(KeyError):
            driver_workload(fresh, "ghost", ())
