"""Tests for the event-driven online simulator (Algorithms 3 and 4)."""

import pytest

from repro.analysis import compute_upper_bound
from repro.core import Objective
from repro.geo import GeoPoint
from repro.market import Driver, MarketCostModel, MarketInstance, Task
from repro.offline import exact_optimum
from repro.online import (
    MaxMarginDispatcher,
    NearestDispatcher,
    OnlineSimulator,
    TaskOrdering,
    run_online,
)

from ..conftest import build_chain_instance, build_random_instance, flat_travel_model, point_east
from ..taskmap_oracle import is_feasible_path


@pytest.fixture(scope="module")
def chain():
    return build_chain_instance()


@pytest.fixture(scope="module")
def random_instance():
    return build_random_instance(task_count=40, driver_count=10, seed=23)


class TestSimulatorOnChainInstance:
    def test_chainer_serves_both_tasks(self, chain):
        outcome = run_online(chain, MaxMarginDispatcher())
        assert outcome.plan_for("chainer").task_indices == (0, 1)
        assert outcome.plan_for("stranded").task_indices == ()
        assert outcome.total_value == pytest.approx(10.0, rel=0.02)
        assert outcome.serve_rate == 1.0
        assert outcome.rejected_tasks == ()

    def test_nearest_also_serves_both(self, chain):
        outcome = run_online(chain, NearestDispatcher())
        assert outcome.served_count == 2

    def test_one_plan_per_driver_in_fleet_order(self, chain):
        outcome = run_online(chain, NearestDispatcher())
        assert [p.driver_id for p in outcome.plans] == [d.driver_id for d in chain.drivers]


class TestCandidateFiltering:
    def _single_task_instance(self, driver: Driver) -> MarketInstance:
        task = Task(
            task_id="m",
            publish_ts=400.0,
            source=point_east(5.0),
            destination=point_east(10.0),
            start_deadline_ts=1000.0,
            end_deadline_ts=1800.0,
            price=6.0,
            distance_km=5.0,
        )
        return MarketInstance.create(
            drivers=[driver], tasks=[task], cost_model=MarketCostModel(flat_travel_model())
        )

    def test_driver_too_far_to_arrive_in_time_is_rejected(self):
        # 10 km away, order published 600 s before the pickup deadline:
        # the approach takes 1200 s, so the task must be rejected.
        far_driver = Driver("far", point_east(-5.0), point_east(12.0), 0.0, 10_000.0)
        instance = self._single_task_instance(far_driver)
        outcome = run_online(instance, NearestDispatcher())
        assert outcome.served_count == 0
        assert list(outcome.rejected_tasks) == [0]

    def test_driver_cannot_start_before_shift(self):
        # Close by, but her shift starts only after the pickup deadline.
        late_driver = Driver("late", point_east(5.0), point_east(12.0), 1200.0, 10_000.0)
        instance = self._single_task_instance(late_driver)
        outcome = run_online(instance, NearestDispatcher())
        assert outcome.served_count == 0

    def test_driver_must_reach_home_after_dropoff(self):
        # Serving the task would strand her: home is 10 km from the drop-off
        # but her shift ends right at the task's end deadline.
        tight_driver = Driver("tight", point_east(5.0), point_east(20.0), 0.0, 1800.0)
        instance = self._single_task_instance(tight_driver)
        outcome = run_online(instance, NearestDispatcher())
        assert outcome.served_count == 0

    def test_feasible_driver_serves_task(self):
        ok_driver = Driver("ok", point_east(3.0), point_east(12.0), 0.0, 10_000.0)
        instance = self._single_task_instance(ok_driver)
        outcome = run_online(instance, NearestDispatcher())
        assert outcome.served_count == 1
        assert outcome.plan_for("ok").profit > 0.0


class TestOrderingAndConfig:
    def test_value_ordering_processes_expensive_tasks_first(self, random_instance):
        arrival = run_online(random_instance, MaxMarginDispatcher(), TaskOrdering.ARRIVAL)
        by_value = run_online(random_instance, MaxMarginDispatcher(), TaskOrdering.VALUE)
        # Both must be valid outcomes; the sorted variant is the offline
        # refinement the paper sketches, so it should not serve less revenue.
        assert by_value.total_revenue >= 0.0
        assert arrival.total_revenue >= 0.0

    def test_unpublishable_tasks_dropped_by_default(self, chain):
        task = chain.tasks[0]
        overpriced = task.with_price(task.price * 2.0, wtp=task.price)
        instance = chain.with_tasks([overpriced, chain.tasks[1]])
        outcome = run_online(instance, MaxMarginDispatcher())
        assert 0 not in outcome.served_tasks()


class TestOutcomeInvariants:
    @pytest.mark.parametrize("dispatcher_cls", [NearestDispatcher, MaxMarginDispatcher])
    def test_no_task_served_twice(self, random_instance, dispatcher_cls):
        outcome = run_online(random_instance, dispatcher_cls())
        served = [m for r in outcome.plans for m in r.task_indices]
        assert len(served) == len(set(served))

    def test_served_plus_rejected_covers_all_tasks(self, random_instance):
        outcome = run_online(random_instance, NearestDispatcher())
        assert outcome.served_count + len(outcome.rejected_tasks) == random_instance.task_count

    def test_max_margin_drivers_never_lose_money(self, random_instance):
        outcome = run_online(random_instance, MaxMarginDispatcher())
        for plan in outcome.plans:
            if plan.task_indices:
                assert plan.profit > -1e-6

    def test_online_value_bounded_by_offline_optimum(self):
        """With the default trace-replay semantics every online schedule is a
        feasible offline assignment, so no online outcome can beat Z*."""
        instance = build_random_instance(task_count=20, driver_count=6, seed=29)
        optimum = exact_optimum(instance).optimum
        bound = compute_upper_bound(instance)
        for dispatcher in (NearestDispatcher(), MaxMarginDispatcher()):
            outcome = run_online(instance, dispatcher)
            assert outcome.total_value <= optimum + 1e-6
            assert outcome.total_value <= bound + 1e-6

    def test_online_chains_are_feasible_offline_paths(self, random_instance):
        """Under default settings each driver's served sequence is a valid
        path in her task map."""
        outcome = run_online(random_instance, MaxMarginDispatcher())
        for plan in outcome.plans:
            task_map = random_instance.task_map(plan.driver_id)
            assert is_feasible_path(task_map, plan.task_indices)

    def test_summary_keys(self, random_instance):
        outcome = run_online(random_instance, NearestDispatcher())
        summary = outcome.summary()
        for key in (
            "total_value",
            "total_revenue",
            "served_count",
            "serve_rate",
            "revenue_per_driver",
            "tasks_per_driver",
            "active_drivers",
            "rejected_tasks",
        ):
            assert key in summary

    def test_plan_lookup_raises_for_unknown_driver(self, chain):
        outcome = run_online(chain, NearestDispatcher())
        with pytest.raises(KeyError):
            outcome.plan_for("ghost")


class TestWaitTimeTracking:
    def test_arrivals_align_with_served_tasks(self, random_instance):
        outcome = run_online(random_instance, NearestDispatcher())
        tasks = random_instance.tasks
        for plan in outcome.plans:
            assert len(plan.arrival_times) == len(plan.task_indices)
            for m, arrival_ts in zip(plan.task_indices, plan.arrival_times):
                # A driver can only be dispatched after the order publishes
                # and must arrive by the pickup deadline.
                assert arrival_ts >= tasks[m].publish_ts
                assert arrival_ts <= tasks[m].start_deadline_ts + 1e-9
        waits = outcome.wait_times_s()
        assert set(waits) == outcome.served_tasks()
        assert all(w >= 0.0 for w in waits.values())
        if waits:
            assert outcome.mean_wait_s == pytest.approx(
                sum(waits.values()) / len(waits)
            )
            assert outcome.total_wait_s == pytest.approx(sum(waits.values()))
        assert outcome.summary()["mean_wait_s"] == outcome.mean_wait_s

    def test_untracked_commit_keeps_alignment(self):
        """A commit without arrival_ts must not shift later arrivals onto
        the wrong task in the wait metrics."""
        import math

        from repro.online.state import DriverState

        driver = Driver(
            driver_id="d",
            source=GeoPoint(0.0, 0.0),
            destination=GeoPoint(0.0, 0.0),
            start_ts=0.0,
            end_ts=10_000.0,
        )
        state = DriverState.fresh(driver)
        state.assign(
            task_index=0, pickup_location=driver.source,
            dropoff_location=driver.source, dropoff_ts=100.0, profit_delta=0.0,
        )
        state.assign(
            task_index=1, pickup_location=driver.source,
            dropoff_location=driver.source, dropoff_ts=200.0, profit_delta=0.0,
            arrival_ts=150.0,
        )
        assert len(state.arrival_times) == len(state.served) == 2
        assert math.isnan(state.arrival_times[0])
        assert state.arrival_times[1] == 150.0
