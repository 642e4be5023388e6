"""Tests for MarketInstance and the trace -> task pipeline."""

from dataclasses import replace

import pytest

from repro.market import Driver, MarketInstance, Task, market_from_trace, tasks_from_trips
from repro.pricing import LinearPricing
from repro.trace import generate_drivers, generate_trace

from ..conftest import build_chain_instance, build_random_instance, point_east


class TestMarketInstance:
    def test_counts(self):
        instance = build_chain_instance()
        assert instance.driver_count == 2
        assert instance.task_count == 2

    def test_duplicate_driver_ids_rejected(self):
        instance = build_chain_instance()
        driver = instance.drivers[0]
        with pytest.raises(ValueError):
            MarketInstance.create(
                drivers=[driver, driver], tasks=instance.tasks, cost_model=instance.cost_model
            )

    def test_duplicate_task_ids_rejected(self):
        instance = build_chain_instance()
        task = instance.tasks[0]
        with pytest.raises(ValueError):
            MarketInstance.create(
                drivers=instance.drivers, tasks=[task, task], cost_model=instance.cost_model
            )

    def test_task_map_lookup(self):
        instance = build_chain_instance()
        assert instance.task_map("chainer").driver.driver_id == "chainer"
        with pytest.raises(KeyError):
            instance.task_map("nobody")

    def test_task_index_lookup(self):
        instance = build_chain_instance()
        assert instance.task_index("task-0") == 0
        assert instance.task_index("task-1") == 1
        with pytest.raises(KeyError):
            instance.task_index("missing")

    def test_task_network_cached(self):
        instance = build_chain_instance()
        assert instance.task_network is instance.task_network

    def test_with_drivers_reuses_network(self):
        instance = build_random_instance(task_count=20, driver_count=6, seed=4)
        network = instance.task_network
        smaller = instance.with_drivers(instance.drivers[:3])
        assert smaller.driver_count == 3
        assert smaller.task_count == instance.task_count
        assert smaller.task_network is network

    def test_with_tasks_replaces_tasks(self):
        instance = build_chain_instance()
        reduced = instance.with_tasks(instance.tasks[:1])
        assert reduced.task_count == 1
        assert reduced.driver_count == instance.driver_count

    def test_subset_tasks_orders_by_publish_time(self):
        instance = build_random_instance(task_count=20, driver_count=4, seed=6)
        subset = instance.subset_tasks(5)
        assert subset.task_count == 5
        publishes = [t.publish_ts for t in subset.tasks]
        assert publishes == sorted(publishes)
        assert max(publishes) <= min(
            t.publish_ts for t in instance.tasks if t.task_id not in {s.task_id for s in subset.tasks}
        )

    def test_subset_tasks_invalid(self):
        instance = build_chain_instance()
        with pytest.raises(ValueError):
            instance.subset_tasks(-1)


class TestTasksFromTrips:
    def test_one_task_per_trip(self):
        trips = generate_trace(trip_count=30, seed=1)
        tasks = tasks_from_trips(trips)
        assert len(tasks) == 30
        assert len({t.task_id for t in tasks}) == 30

    def test_deadlines_follow_trip_times(self):
        trips = generate_trace(trip_count=10, seed=2)
        tasks = tasks_from_trips(trips, publish_lead_s=300.0)
        for trip, task in zip(trips, tasks):
            assert task.start_deadline_ts == pytest.approx(trip.start_ts)
            assert task.end_deadline_ts == pytest.approx(trip.end_ts)
            assert task.publish_ts == pytest.approx(trip.start_ts - 300.0)
            assert task.distance_km == pytest.approx(trip.distance_km)

    def test_prices_follow_eq15(self):
        trips = generate_trace(trip_count=10, seed=3)
        policy = LinearPricing(alpha=1.5)
        tasks = tasks_from_trips(trips, pricing=policy)
        for trip, task in zip(trips, tasks):
            expected = 1.5 * policy.schedule.fare(trip.distance_km, trip.duration_s)
            assert task.price == pytest.approx(expected)

    def test_valuation_is_left_unset_so_it_defaults_to_the_price(self):
        tasks = tasks_from_trips(generate_trace(trip_count=20, seed=4))
        assert all(t.wtp is None for t in tasks)
        assert all(t.valuation == t.price and t.consumer_surplus == 0.0 for t in tasks)
        assert all(t.is_publishable for t in tasks)

    def test_zero_duration_trips_are_skipped(self):
        trips = generate_trace(trip_count=5, seed=6)
        instant = replace(trips[0], trip_id="instant", end_ts=trips[0].start_ts)
        tasks = tasks_from_trips([instant, *trips])
        assert len(tasks) == 5
        assert "task-instant" not in {t.task_id for t in tasks}

    def test_negative_lead_rejected(self):
        with pytest.raises(ValueError):
            tasks_from_trips([], publish_lead_s=-1.0)


class TestMarketFromTrace:
    def test_end_to_end_construction(self):
        trips = generate_trace(trip_count=25, seed=6)
        drivers = generate_drivers(count=5, seed=7)
        market = market_from_trace(trips, drivers)
        assert market.task_count == 25
        assert market.driver_count == 5
        assert market.task_network.task_count == 25
