"""Shared fixtures and instance factories for the test suite."""

from __future__ import annotations

import random

import pytest
from hypothesis import settings

# Deterministic hypothesis runs everywhere (CI and local): derandomize pins
# the example stream to the test's source hash, no wall-clock deadline flakes,
# and a bounded example budget keeps the property suites cheap.  Individual
# tests may still lower max_examples with their own @settings.
settings.register_profile("repro-ci", derandomize=True, deadline=None, max_examples=50)
settings.load_profile("repro-ci")

from repro.distributed import DistributedStreamSession, PersistentWorkerPool, ZonePartition
from repro.geo import GeoPoint, HaversineEstimator, TravelModel
from repro.market.cost import MarketCostModel
from repro.market.driver import Driver
from repro.market.instance import MarketInstance, market_from_trace
from repro.market.task import Task
from repro.trace.drivers import DriverGenerationConfig, DriverScheduleGenerator, WorkingModel
from repro.trace.synthetic import generate_trace

#: Anchor point inside the Porto bounding box used by handcrafted geometries.
ANCHOR = GeoPoint(41.17, -8.62)


def flat_travel_model(speed_kmh: float = 30.0, cost_per_km: float = 0.12) -> TravelModel:
    """Travel model with circuity 1.0 so distances equal straight-line values,
    which makes handcrafted arithmetic in tests exact."""
    return TravelModel(HaversineEstimator(circuity=1.0), speed_kmh=speed_kmh, cost_per_km=cost_per_km)


def point_east(km: float) -> GeoPoint:
    """A point ``km`` kilometres east of the anchor."""
    return ANCHOR.offset_km(0.0, km)


def make_chain_task(index: int, start_km: float, end_km: float, start_ts: float, price: float) -> Task:
    """A task driving east along the anchor's latitude."""
    distance = abs(end_km - start_km)
    duration = distance / 30.0 * 3600.0
    return Task(
        task_id=f"task-{index}",
        publish_ts=start_ts - 600.0,
        source=point_east(start_km),
        destination=point_east(end_km),
        start_deadline_ts=start_ts,
        end_deadline_ts=start_ts + duration + 120.0,
        price=price,
        distance_km=distance,
    )


def build_chain_instance() -> MarketInstance:
    """A tiny handcrafted market with a chainable pair of tasks.

    * task 0: km 0 -> km 5 starting at t=1000
    * task 1: km 5 -> km 10 starting shortly after task 0 can finish
    * driver "chainer": travels km 0 -> km 10 over a window wide enough to
      serve both tasks back to back
    * driver "stranded": far north with a window that fits nothing
    """
    task0 = make_chain_task(0, 0.0, 5.0, start_ts=1000.0, price=5.0)
    ride0 = 5.0 / 30.0 * 3600.0
    task1_start = task0.start_deadline_ts + ride0 + 300.0
    task1 = make_chain_task(1, 5.0, 10.0, start_ts=task1_start, price=5.0)

    chainer = Driver(
        driver_id="chainer",
        source=point_east(0.0),
        destination=point_east(10.0),
        start_ts=0.0,
        end_ts=task1.end_deadline_ts + 3600.0,
    )
    stranded = Driver(
        driver_id="stranded",
        source=ANCHOR.offset_km(6.0, 0.0),
        destination=ANCHOR.offset_km(6.0, 0.5),
        start_ts=0.0,
        end_ts=300.0,
    )
    return MarketInstance.create(
        drivers=[chainer, stranded],
        tasks=[task0, task1],
        cost_model=MarketCostModel(flat_travel_model()),
    )


def build_random_instance(
    task_count: int = 30,
    driver_count: int = 8,
    seed: int = 3,
    working_model: WorkingModel = WorkingModel.HITCHHIKING,
) -> MarketInstance:
    """A small but non-trivial instance built through the trace pipeline."""
    trips = generate_trace(trip_count=task_count, seed=seed)
    generator = DriverScheduleGenerator(
        DriverGenerationConfig(working_model=working_model, seed=seed + 1)
    )
    drivers = generator.generate_from_trips(trips, count=driver_count)
    return market_from_trace(trips, drivers)


def plan_of(solution, driver_id: str):
    """The plan of ``solution`` for ``driver_id``."""
    return {plan.driver_id: plan for plan in solution.plans}[driver_id]


def stream_from_start(instance, region, regions, batches, config):
    """Contract 10's reference: a serial stream that never rebalances,
    routed over ``regions`` (a finished stream's ``result.regions``) from its
    first batch and fed ``batches``."""
    with PersistentWorkerPool("serial") as pool, DistributedStreamSession(
        fleet=instance.drivers,
        cost_model=instance.cost_model,
        config=config,
        pool=pool,
        router=ZonePartition(region, regions),
    ) as session:
        for batch in batches:
            session.append_batch(batch)
        return session.finish()


@pytest.fixture(scope="session")
def chain_instance() -> MarketInstance:
    return build_chain_instance()


@pytest.fixture(scope="session")
def small_instance() -> MarketInstance:
    """A session-cached random instance used by many integration tests."""
    return build_random_instance(task_count=30, driver_count=8, seed=3)


@pytest.fixture(scope="session")
def medium_instance() -> MarketInstance:
    """A slightly larger instance for algorithm comparisons."""
    return build_random_instance(task_count=60, driver_count=15, seed=5)


@pytest.fixture()
def rng() -> random.Random:
    return random.Random(1234)
