"""Tests for the array-backed shard payloads of the process executor."""

import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.distributed import (
    ShardPayload,
    ShardPayloadDelta,
    ShardWorkRequest,
    ShmShipper,
    SpatialPartitioner,
    delta_from_tasks,
    instance_from_payload,
    payload_from_shard,
    solve_shard,
    tasks_from_delta,
)
from repro.geo import PORTO, GeoPoint
from repro.market import Driver, MarketInstance, Task
from repro.market.cost import MarketCostModel

from ..conftest import build_random_instance


@pytest.fixture(scope="module")
def plan():
    instance = build_random_instance(task_count=60, driver_count=15, seed=37)
    return SpatialPartitioner(PORTO, 2, 2).partition(instance)


class TestPayloadRoundTrip:
    def test_rebuilt_instance_is_value_identical(self, plan):
        for shard in plan.shards:
            rebuilt = instance_from_payload(payload_from_shard(shard))
            assert rebuilt.drivers == shard.instance.drivers
            assert rebuilt.tasks == shard.instance.tasks
            assert rebuilt.cost_model is shard.instance.cost_model

    def test_optional_fields_use_nan_sentinels(self):
        a = GeoPoint(41.15, -8.62)
        b = GeoPoint(41.16, -8.60)
        tasks = (
            Task("with-extras", 0.0, a, b, 600.0, 1800.0, price=5.0, wtp=7.5, distance_km=2.5),
            Task("bare", 0.0, b, a, 600.0, 1800.0, price=4.0),
        )
        drivers = (Driver("d", a, b, 0.0, 7200.0),)
        instance = MarketInstance.create(drivers=drivers, tasks=tasks)
        shard = SpatialPartitioner(PORTO, 1, 1).partition(instance).shards[0]
        payload = payload_from_shard(shard)
        assert payload.task_wtps[0] == 7.5
        assert np.isnan(payload.task_wtps[1])
        assert np.isnan(payload.task_distances[1])
        rebuilt = instance_from_payload(payload)
        assert rebuilt.tasks[0].wtp == 7.5
        assert rebuilt.tasks[1].wtp is None
        assert rebuilt.tasks[1].distance_km is None

    def test_payload_is_picklable_without_derived_state(self, plan):
        shard = max(plan.shards, key=lambda s: s.task_count)
        # Force the expensive caches the payload must NOT carry.
        shard.instance.task_maps
        payload = payload_from_shard(shard)
        blob = pickle.dumps(payload)
        restored = pickle.loads(blob)
        assert restored.task_ids == payload.task_ids
        assert np.array_equal(restored.task_coords, payload.task_coords)
        # The payload ships primal arrays only; it must stay far below the
        # pickled object graph with its cached task maps.
        assert len(blob) < len(pickle.dumps(shard)) / 2


class TestArrayNormalisation:
    """Transport invariant: every payload column is C-contiguous float64.

    The wire layout (pickle and shared-memory alike) ships each column as one
    flat float64 buffer; a transposed view or a float32 array sneaking into a
    hand-built payload must be coerced at construction, not corrupt the
    segment layout at ship time.
    """

    def test_payload_coerces_transposed_and_float32_input(self):
        coords = np.asfortranarray(
            [[41.15, -8.62, 41.16, -8.60], [41.14, -8.61, 41.17, -8.59]]
        )
        assert not coords.flags["C_CONTIGUOUS"]  # a genuinely hostile input
        payload = ShardPayload(
            shard_id=0,
            driver_ids=("d0", "d1"),
            driver_coords=coords,
            driver_windows=np.array([[0, 7200], [0, 7200]], dtype=np.int64),
            task_ids=("t0",),
            task_coords=np.array([[41.15, -8.61, 41.155, -8.605]], dtype=np.float32),
            task_times=np.array([[0.0, 600.0, 1800.0]], dtype=np.float32),
            task_prices=np.array([5.0], dtype=np.float32),
            task_wtps=np.array([np.nan], dtype=np.float32),
            task_distances=np.array([2.5], dtype=np.float32),
            cost_model=MarketCostModel(),
        )
        for name in ShardPayload.ARRAY_FIELDS:
            column = getattr(payload, name)
            assert column.dtype == np.float64, name
            assert column.flags["C_CONTIGUOUS"], name
        assert np.array_equal(payload.driver_coords, np.ascontiguousarray(coords))
        assert payload.driver_windows.tolist() == [[0.0, 7200.0], [0.0, 7200.0]]
        assert np.isnan(payload.task_wtps[0])
        # The coerced payload is still a working instance.
        rebuilt = instance_from_payload(payload)
        assert rebuilt.tasks[0].distance_km == pytest.approx(2.5)

    def test_delta_coerces_like_the_payload(self):
        delta = ShardPayloadDelta(
            shard_id=3,
            task_ids=("t0", "t1"),
            task_coords=np.zeros((4, 2), dtype=np.float32).T,
            task_times=np.array([[0.0, 0.0], [600.0, 600.0], [1800.0, 1800.0]]).T,
            task_prices=np.array([5, 6], dtype=np.int32),
            task_wtps=np.array([np.nan, 7.5], dtype=np.float32),
            task_distances=np.array([np.nan, np.nan], dtype=np.float32),
        )
        for name in ShardPayloadDelta.ARRAY_FIELDS:
            column = getattr(delta, name)
            assert column.dtype == np.float64, name
            assert column.flags["C_CONTIGUOUS"], name
        tasks = tasks_from_delta(delta)
        assert tasks[0].wtp is None and tasks[1].wtp == 7.5

    def test_pipeline_built_payloads_already_comply(self, plan):
        """The normal construction path satisfies the invariant natively, so
        coercion is a no-op there (what keeps the shm receive path zero-copy)."""
        for shard in plan.shards:
            payload = payload_from_shard(shard)
            for name in ShardPayload.ARRAY_FIELDS:
                column = getattr(payload, name)
                assert column.dtype == np.float64
                assert column.flags["C_CONTIGUOUS"]


class TestPayloadDelta:
    """The streaming wire format: accumulated deltas == full-payload rebuild."""

    def test_round_trip_is_value_identical(self, plan):
        shard = max(plan.shards, key=lambda s: s.task_count)
        delta = delta_from_tasks(shard.spec.shard_id, shard.instance.tasks)
        assert tasks_from_delta(delta) == shard.instance.tasks
        assert delta.task_count == shard.task_count

    def test_delta_is_picklable(self, plan):
        shard = max(plan.shards, key=lambda s: s.task_count)
        delta = delta_from_tasks(shard.spec.shard_id, shard.instance.tasks)
        restored = pickle.loads(pickle.dumps(delta))
        assert tasks_from_delta(restored) == shard.instance.tasks

    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(cuts=st.lists(st.integers(min_value=0, max_value=60), max_size=6))
    def test_any_batch_split_rebuilds_the_full_payload(self, plan, cuts):
        """Shipping a stream as per-batch deltas rebuilds exactly the task
        tuple the one-shot full payload carries, for any batch boundaries."""
        shard = max(plan.shards, key=lambda s: s.task_count)
        tasks = shard.instance.tasks
        boundaries = sorted({0, len(tasks), *(min(c, len(tasks)) for c in cuts)})
        accumulated = []
        for lo, hi in zip(boundaries[:-1], boundaries[1:]):
            delta = delta_from_tasks(shard.spec.shard_id, tasks[lo:hi])
            accumulated.extend(tasks_from_delta(delta))
        full = instance_from_payload(payload_from_shard(shard))
        assert tuple(accumulated) == full.tasks
        assert tuple(accumulated) == tasks


class TestWorkerEntry:
    @pytest.mark.parametrize("solver", ["greedy", "nearest", "maxMargin"])
    def test_matches_in_process_worker(self, plan, solver):
        shard = max(plan.shards, key=lambda s: s.task_count)
        request = ShardWorkRequest(
            shard.spec.shard_id, shard.driver_count, shard.task_count, solver, seed=3
        )
        payload = payload_from_shard(shard)
        direct = solve_shard(shard, request)
        shipper = ShmShipper()
        try:
            shipped = [
                solve_shard(payload, request),
                solve_shard(shipper.ship_delta(payload), request),
            ]
        finally:
            shipper.close()
        for result in shipped:
            assert result.shard_id == direct.shard_id
            assert result.plans == direct.plans
            assert result.total_value == direct.total_value
            assert result.served_count == direct.served_count

    def test_unknown_solver_rejected(self, plan):
        payload = payload_from_shard(plan.shards[0])
        with pytest.raises(ValueError):
            solve_shard(payload, ShardWorkRequest(0, 1, 1, "simplex"))
