"""Parity contract 18: rolling-horizon dispatch across the distributed stack.

Horizon dispatch is a per-shard deterministic function of (fleet, config,
observed arrivals), and the config rides the existing ``_pool_open`` wire, so
it must inherit every parity guarantee of the myopic stream:

* bit-identical merged solutions across the serial / process pool
  policies (the process one crosses a real pickle boundary);
* provided warm pool == coordinator-owned pool;
* ``horizon=1`` degrades exactly to the myopic streamed dispatch;
* an all-ones multi-window travel-model profile reproduces the default
  one-window model's distributed stream bit for bit, and a genuinely
  time-varying profile keeps executor parity.
"""

from dataclasses import replace

import pytest

from repro.distributed import (
    DistributedCoordinator,
    PersistentWorkerPool,
    SpatialPartitioner,
)
from repro.geo import PORTO
from repro.market.cost import MarketCostModel
from repro.market.instance import MarketInstance
from repro.online.batch import BatchConfig

from ..conftest import build_random_instance

WINDOW_S = 600.0
EXECUTORS = ("serial", "process")
GRID_ROWS, GRID_COLS = 2, 2

HORIZON_CONFIG = BatchConfig(window_s=WINDOW_S, horizon=8, overlap=2)


@pytest.fixture(scope="module")
def instance():
    return build_random_instance(task_count=60, driver_count=15, seed=41)


@pytest.fixture(scope="module")
def time_varying_instance(instance):
    publishable = [t for t in instance.tasks if t.is_publishable]
    origin = min(t.publish_ts for t in publishable)
    span = max(t.start_deadline_ts for t in instance.tasks) - origin
    varying = replace(
        instance.cost_model.travel_model,
        window_s=max(span / 4.0, 1.0),
        speed_factors=(1.0, 0.7, 1.2, 1.0),
        cost_factors=(1.0, 1.1, 1.0, 1.0),
        origin_ts=origin,
    )
    return MarketInstance.create(
        drivers=instance.drivers,
        tasks=instance.tasks,
        cost_model=MarketCostModel(varying),
    )


def coordinator(executor="serial"):
    return DistributedCoordinator(
        SpatialPartitioner(PORTO, GRID_ROWS, GRID_COLS), executor=executor
    )


def stream_fingerprint(result):
    return (
        result.solution.assignment(),
        tuple((p.driver_id, p.task_indices, p.profit) for p in result.solution.plans),
        result.rejected_tasks,
        result.report.total_value,
        result.report.wait_total_s,
    )


def solve(instance, config, executor="serial", pool=None):
    return coordinator(executor).solve_stream(instance, config=config, pool=pool)


class TestExecutorParity:
    def test_horizon_stream_identical_across_executors(self, instance):
        prints = []
        for executor in EXECUTORS:
            with PersistentWorkerPool(executor=executor, worker_count=2) as pool:
                result = solve(instance, HORIZON_CONFIG, executor, pool)
            prints.append(stream_fingerprint(result))
        assert prints[0] == prints[1]

    def test_provided_pool_equals_own_pool(self, instance):
        with PersistentWorkerPool(executor="process", worker_count=2) as pool:
            warm = solve(instance, HORIZON_CONFIG, "process", pool)
        own = solve(instance, HORIZON_CONFIG, "process")
        assert stream_fingerprint(warm) == stream_fingerprint(own)

    def test_time_varying_model_keeps_executor_parity(self, time_varying_instance):
        prints = []
        for executor in EXECUTORS:
            with PersistentWorkerPool(executor=executor, worker_count=2) as pool:
                result = solve(
                    time_varying_instance, HORIZON_CONFIG, executor, pool
                )
            prints.append(stream_fingerprint(result))
        assert prints[0] == prints[1]


class TestDegradation:
    def test_horizon_one_equals_myopic_stream(self, instance):
        myopic = solve(instance, BatchConfig(window_s=WINDOW_S))
        degraded = solve(instance, BatchConfig(window_s=WINDOW_S, horizon=1))
        assert stream_fingerprint(degraded) == stream_fingerprint(myopic)

    def test_flat_profile_equals_plain_model_stream(self, instance):
        flat = MarketInstance.create(
            drivers=instance.drivers,
            tasks=instance.tasks,
            cost_model=MarketCostModel(
                replace(
                    instance.cost_model.travel_model,
                    window_s=600.0,
                    speed_factors=(1.0,) * 4,
                    cost_factors=(1.0,) * 4,
                )
            ),
        )
        plain = solve(instance, HORIZON_CONFIG, "process")
        flat_result = solve(flat, HORIZON_CONFIG, "process")
        assert stream_fingerprint(flat_result) == stream_fingerprint(plain)

    def test_time_varying_config_crosses_the_wire(self, time_varying_instance):
        """A time-indexed model + horizon config survives the pickle boundary
        and produces the same result as the serial in-process path."""
        serial = solve(time_varying_instance, HORIZON_CONFIG, "serial")
        process = solve(time_varying_instance, HORIZON_CONFIG, "process")
        assert stream_fingerprint(process) == stream_fingerprint(serial)
