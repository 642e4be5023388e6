"""Tests for the array-backed shard record of the process executor."""

import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.distributed import (
    ShardPayloadDelta,
    ShardWorkRequest,
    ShmShipper,
    SpatialPartitioner,
    delta_from_tasks,
    solve_shard,
    tasks_from_delta,
)
from repro.geo import PORTO, GeoPoint
from repro.market import Task

from ..conftest import build_random_instance


@pytest.fixture(scope="module")
def plan():
    instance = build_random_instance(task_count=60, driver_count=15, seed=37)
    return SpatialPartitioner(PORTO, 2, 2).partition(instance)


class TestArrayNormalisation:
    """Transport invariant: every record column is C-contiguous float64.

    The wire layout (pickle and shared-memory alike) ships each column as one
    flat float64 buffer; a transposed view or a float32 array sneaking into a
    hand-built record must be coerced at construction, not corrupt the
    segment layout at ship time.
    """

    def test_delta_coerces_transposed_and_float32_input(self):
        coords = np.asfortranarray(
            [[41.15, -8.62, 41.16, -8.60], [41.14, -8.61, 41.17, -8.59]]
        )
        assert not coords.flags["C_CONTIGUOUS"]  # a genuinely hostile input
        delta = ShardPayloadDelta(
            shard_id=3,
            task_ids=("t0", "t1"),
            task_coords=coords,
            task_times=np.array([[0.0, 0.0], [600.0, 600.0], [1800.0, 1800.0]]).T,
            task_prices=np.array([5, 6], dtype=np.int32),
            task_wtps=np.array([np.nan, 7.5], dtype=np.float32),
            task_distances=np.array([np.nan, 2.5], dtype=np.float32),
        )
        for name in ShardPayloadDelta.ARRAY_FIELDS:
            column = getattr(delta, name)
            assert column.dtype == np.float64, name
            assert column.flags["C_CONTIGUOUS"], name
        assert np.array_equal(delta.task_coords, np.ascontiguousarray(coords))
        tasks = tasks_from_delta(delta)
        assert tasks[0].wtp is None and tasks[1].wtp == 7.5
        assert tasks[1].distance_km == pytest.approx(2.5)

    def test_pipeline_built_deltas_already_comply(self, plan):
        """The normal construction path satisfies the invariant natively, so
        coercion is a no-op there (what keeps the shm receive path zero-copy)."""
        for shard in plan.shards:
            delta = delta_from_tasks(shard.spec.shard_id, shard.instance.tasks)
            for name in ShardPayloadDelta.ARRAY_FIELDS:
                column = getattr(delta, name)
                assert column.dtype == np.float64
                assert column.flags["C_CONTIGUOUS"]


class TestPayloadDelta:
    """Contract 6: the delta round trip == the shard's tasks, any batch split."""

    def test_round_trip_is_value_identical(self, plan):
        shard = max(plan.shards, key=lambda s: s.task_count)
        delta = delta_from_tasks(shard.spec.shard_id, shard.instance.tasks)
        assert tasks_from_delta(delta) == shard.instance.tasks
        assert delta.task_count == shard.task_count

    def test_optional_fields_use_nan_sentinels(self):
        a = GeoPoint(41.15, -8.62)
        b = GeoPoint(41.16, -8.60)
        tasks = (
            Task("with-extras", 0.0, a, b, 600.0, 1800.0, price=5.0, wtp=7.5, distance_km=2.5),
            Task("bare", 0.0, b, a, 600.0, 1800.0, price=4.0),
        )
        delta = delta_from_tasks(0, tasks)
        assert delta.task_wtps[0] == 7.5
        assert np.isnan(delta.task_wtps[1])
        assert np.isnan(delta.task_distances[1])
        rebuilt = tasks_from_delta(delta)
        assert rebuilt == tasks
        assert rebuilt[1].wtp is None
        assert rebuilt[1].distance_km is None

    def test_delta_is_picklable(self, plan):
        shard = max(plan.shards, key=lambda s: s.task_count)
        delta = delta_from_tasks(shard.spec.shard_id, shard.instance.tasks)
        restored = pickle.loads(pickle.dumps(delta))
        assert tasks_from_delta(restored) == shard.instance.tasks

    def test_delta_ships_without_derived_state(self, plan):
        shard = max(plan.shards, key=lambda s: s.task_count)
        # Force the expensive caches the record must NOT carry.
        shard.instance.task_maps
        blob = pickle.dumps(delta_from_tasks(shard.spec.shard_id, shard.instance.tasks))
        # The record ships primal arrays only; it must stay far below the
        # pickled object graph with its cached task maps.
        assert len(blob) < len(pickle.dumps(shard)) / 2

    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(cuts=st.lists(st.integers(min_value=0, max_value=60), max_size=6))
    def test_any_batch_split_rebuilds_the_shards_tasks(self, plan, cuts):
        """Shipping a shard's tasks as per-batch deltas rebuilds exactly its
        task tuple, for any batch boundaries (one batch: an offline shard)."""
        shard = max(plan.shards, key=lambda s: s.task_count)
        tasks = shard.instance.tasks
        boundaries = sorted({0, len(tasks), *(min(c, len(tasks)) for c in cuts)})
        accumulated = []
        for lo, hi in zip(boundaries[:-1], boundaries[1:]):
            delta = delta_from_tasks(shard.spec.shard_id, tasks[lo:hi])
            accumulated.extend(tasks_from_delta(delta))
        assert tuple(accumulated) == tasks


class TestOfflineShipment:
    """An offline shard reaches ``solve_shard`` in the stream's forms: the
    caller's ``(shard_id, tasks)``, one delta, or its shm descriptor, with
    the drivers and cost model beside it — every form solves alike."""

    @pytest.mark.parametrize("solver", ["greedy", "nearest", "maxMargin"])
    def test_every_form_matches_the_in_process_solve(self, plan, solver):
        shard = max(plan.shards, key=lambda s: s.task_count)
        sub = shard.instance
        request = ShardWorkRequest(
            shard.spec.shard_id, shard.driver_count, shard.task_count, solver, seed=3
        )
        delta = delta_from_tasks(shard.spec.shard_id, sub.tasks)
        direct = solve_shard((shard.spec.shard_id, sub.tasks), sub.drivers, sub.cost_model, request)
        shipper = ShmShipper()
        try:
            shipped = [
                solve_shard(delta, sub.drivers, sub.cost_model, request),
                solve_shard(shipper.ship_delta(delta), sub.drivers, sub.cost_model, request),
            ]
        finally:
            shipper.close()
        for result in shipped:
            assert result.plans == direct.plans
            assert result.rejected_tasks == direct.rejected_tasks
            assert result.wait_total_s == direct.wait_total_s

    def test_unknown_solver_rejected(self, plan):
        shard = plan.shards[0]
        delta = delta_from_tasks(shard.spec.shard_id, shard.instance.tasks)
        with pytest.raises(ValueError):
            solve_shard(
                delta,
                shard.instance.drivers,
                shard.instance.cost_model,
                ShardWorkRequest(0, 1, 1, "simplex"),
            )
