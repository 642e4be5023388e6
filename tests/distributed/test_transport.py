"""Zero-copy shared-memory transport: layout, lifecycle, parity (contract 16).

Four layers are pinned here:

* the packing layer — one descriptor round-trips the one shard record (an
  offline shard's tasks or a stream batch) through a shared segment
  value-identically, ids and ``NaN`` sentinels included;
* the shipper — segments are recycled through the free list (a steady-state
  stream reuses a handful of segments), ``release`` is idempotent,
  ``close()`` unlinks everything, and a failed shipment falls back to
  pickle without losing the batch;
* the pool as the one flattener — a serial pool hands the caller's objects
  through, a process pool flattens once per offline shard and per stream
  (shard, batch);
* **parity contract 16** — shm == pickle merges, bit-identical, for the
  offline path and the streaming path alike, with the pickle
  transport (and the serial executor) as the reference.
"""

import dataclasses
import os
import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.distributed import (
    DistributedCoordinator,
    DeltaDescriptor,
    PersistentWorkerPool,
    ShardPayloadDelta,
    ShmShipper,
    SpatialPartitioner,
    TransportStats,
    ZonePartition,
    delta_from_descriptor,
    delta_from_tasks,
    delta_wire_bytes,
)
from repro.distributed import ShardWorkRequest, solve_shard
from repro.distributed import pool as pool_module
from repro.distributed.pool import (
    _SESSIONS,
    _pool_append,
    _pool_discard,
    _pool_open,
    next_stream_token,
)
from repro.distributed.transport import _MAX_FREE_SEGMENTS, _decode_ids, _encode_ids
from repro.geo import PORTO
from repro.online.batch import BatchConfig, window_batches

from ..conftest import build_random_instance
from .test_stream import stream_fingerprint

WINDOW_S = 600.0


def shm_entries(prefix: str):
    """Live ``/dev/shm`` segments created under ``prefix`` (the leak scan)."""
    root = "/dev/shm"
    if not os.path.isdir(root):  # non-POSIX-shm platform: nothing to scan
        return []
    return sorted(name for name in os.listdir(root) if name.startswith(prefix))


@pytest.fixture(scope="module")
def instance():
    return build_random_instance(task_count=60, driver_count=15, seed=37)


@pytest.fixture(scope="module")
def plan(instance):
    return SpatialPartitioner(PORTO, 2, 2).partition(instance)


def solve_fingerprint(result):
    return (
        result.solution.assignment(),
        tuple((p.driver_id, p.task_indices, p.profit) for p in result.solution.plans),
        result.solution.total_value,
    )


class TestIdCodec:
    def test_round_trip(self):
        ids = ("plain", "", "unicode-éçø", "t" * 300)
        assert _decode_ids(*_encode_ids(ids)) == ids

    def test_empty(self):
        blob, lens = _encode_ids(())
        assert blob.size == 0 and lens.size == 0
        assert _decode_ids(blob, lens) == ()


class TestDescriptorRoundTrip:
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
    )
    @given(lo=st.integers(0, 30), width=st.integers(0, 30))
    def test_round_trip_is_field_for_field_identical(self, plan, lo, width):
        """Any batch cut (the empty batch included) comes back from shared
        memory with every field equal — ids and ``NaN`` sentinels too."""
        shard = max(plan.shards, key=lambda s: s.task_count)
        record = delta_from_tasks(shard.spec.shard_id, shard.instance.tasks[lo : lo + width])
        shipper = ShmShipper()
        try:
            rebuilt = delta_from_descriptor(shipper.ship_delta(record))
            assert type(rebuilt) is ShardPayloadDelta
            for f in dataclasses.fields(record):
                got, want = getattr(rebuilt, f.name), getattr(record, f.name)
                if f.name in ShardPayloadDelta.ARRAY_FIELDS:
                    # NaN sentinels must survive, so compare with equal_nan.
                    assert np.array_equal(got, want, equal_nan=True), f.name
                    assert got.shape == want.shape, f.name
                    assert got.dtype == np.float64 and got.flags["C_CONTIGUOUS"]
                else:
                    assert got == want, f.name
        finally:
            shipper.close()

    def test_descriptor_is_tiny_next_to_the_payload(self, plan):
        """The point of the transport: what crosses the pipe shrinks from the
        full array bytes to a descriptor of a few hundred bytes."""
        shard = max(plan.shards, key=lambda s: s.task_count)
        delta = delta_from_tasks(shard.spec.shard_id, shard.instance.tasks)
        shipper = ShmShipper()
        try:
            desc = shipper.ship_delta(delta)
            assert len(pickle.dumps(desc)) < 1024
            assert delta_wire_bytes(delta) > len(pickle.dumps(desc))
        finally:
            shipper.close()

    def test_the_descriptor_names_only_where_the_columns_are(self):
        """One record kind: the descriptor carries no record type and no
        non-column fields."""
        assert [f.name for f in dataclasses.fields(DeltaDescriptor)] == [
            "shard_id", "segment", "specs"
        ]

    def test_wire_bytes_count_utf8_not_code_points(self):
        """The pickle side's byte count equals what the shm side packs —
        array bytes plus the id blob — for non-ASCII task ids."""
        delta = ShardPayloadDelta(
            shard_id=5,
            task_ids=("tâche-1", "注文-2", "şoför-3"),
            task_coords=np.zeros((3, 4)),
            task_times=np.zeros((3, 3)),
            task_prices=np.ones(3),
            task_wtps=np.full(3, np.nan),
            task_distances=np.full(3, np.nan),
        )
        shipper = ShmShipper()
        try:
            desc = shipper.ship_delta(delta)
        finally:
            shipper.close()
        sizes = [
            int(np.prod(shape)) * np.dtype(dtype).itemsize for _off, shape, dtype in desc.specs
        ]
        n = len(ShardPayloadDelta.ARRAY_FIELDS)
        blobs = sizes[n::2]  # each id field packs (blob, lengths)
        assert delta_wire_bytes(delta) == sum(sizes[:n]) + sum(blobs)
        assert sum(blobs) > sum(len(s) for s in delta.task_ids)


class TestShmShipper:
    def test_segments_are_reused_across_shipments(self, plan):
        delta = delta_from_tasks(0, plan.shards[0].instance.tasks[:5])
        shipper = ShmShipper()
        try:
            first = shipper.ship_delta(delta)
            shipper.release(first.segment)
            second = shipper.ship_delta(delta)
            assert second.segment == first.segment  # recycled, not recreated
            assert shipper.stats.segments_created == 1
            assert shipper.stats.segment_reuses == 1
        finally:
            shipper.close()

    def test_release_is_idempotent(self, plan):
        delta = delta_from_tasks(0, plan.shards[0].instance.tasks[:5])
        shipper = ShmShipper()
        try:
            desc = shipper.ship_delta(delta)
            shipper.release(desc.segment)
            shipper.release(desc.segment)  # second release: no-op, no error
            assert shipper.stats.segments_created == 1
        finally:
            shipper.close()

    def test_excess_free_segments_are_retired(self, plan):
        delta = delta_from_tasks(0, plan.shards[0].instance.tasks[:3])
        shipper = ShmShipper()
        try:
            descs = [shipper.ship_delta(delta) for _ in range(_MAX_FREE_SEGMENTS + 2)]
            for desc in descs:
                shipper.release(desc.segment)
            assert shipper.stats.segments_retired == 2
            assert shm_entries(shipper.segment_prefix) != []  # free list kept
        finally:
            shipper.close()
        assert shm_entries(shipper.segment_prefix) == []

    def test_close_unlinks_everything_and_refuses_new_shipments(self, plan):
        delta = delta_from_tasks(0, plan.shards[0].instance.tasks[:5])
        shipper = ShmShipper()
        shipper.ship_delta(delta)  # left live on purpose
        released = shipper.ship_delta(delta)
        shipper.release(released.segment)
        assert shm_entries(shipper.segment_prefix) != []
        shipper.close()
        shipper.close()  # idempotent
        assert shm_entries(shipper.segment_prefix) == []
        with pytest.raises(RuntimeError, match="closed"):
            shipper.ship_delta(delta)

    def test_stats_account_bytes_on_both_sides(self, plan):
        shard = max(plan.shards, key=lambda s: s.task_count)
        delta = delta_from_tasks(shard.spec.shard_id, shard.instance.tasks)
        stats = TransportStats(transport="shm")
        shipper = ShmShipper(stats=stats)
        try:
            shipper.ship_delta(delta)
            assert stats.shm_shipments == 1
            assert stats.shm_bytes >= delta_wire_bytes(delta)
            assert 0 < stats.descriptor_bytes < 1024
            assert stats.bytes_over_pipe == stats.descriptor_bytes
            snapshot = stats.snapshot()
            assert snapshot["transport"] == "shm"
            assert snapshot["shard_bytes"] == {delta.shard_id: stats.descriptor_bytes}
        finally:
            shipper.close()


class TestPoolTransportSelection:
    def test_unknown_transport_rejected(self):
        with pytest.raises(ValueError, match="unknown transport"):
            PersistentWorkerPool(executor="serial", transport="capnproto")
        with pytest.raises(ValueError, match="unknown transport"):
            DistributedCoordinator(
                SpatialPartitioner(PORTO, 1, 1), transport="capnproto"
            )

    def test_shm_is_inert_without_a_pipe(self, plan):
        """A serial pool accepts transport='shm' but ships nothing: no pipe
        exists, so both transports are trivially identical there."""
        tasks = plan.shards[0].instance.tasks[:5]
        delta = delta_from_tasks(0, tasks)
        with PersistentWorkerPool(executor="serial", transport="shm") as pool:
            assert not pool.shm_active
            with pytest.raises(RuntimeError, match="shm-transport process pools"):
                pool.shipper
            token = next_stream_token()
            pool.submit(
                0, _pool_open, token, 0,
                plan.shards[0].instance.drivers, plan.shards[0].instance.cost_model,
                BatchConfig(window_s=WINDOW_S),
            ).result()
            count = pool.submit_shipment(0, _pool_append, (0, tasks), token, 0).result()
            assert count == delta.task_count
            assert pool.stats.shm_shipments == 0
            assert pool.stats.pickle_shipments == 0  # nothing crossed a pipe
            # Serial sessions live in *this* process — discard them so the
            # lifecycle tests' registry counts stay clean.
            pool.submit(0, _pool_discard, token, 0).result()

    def test_failed_shipment_falls_back_to_pickle(self, plan):
        """A shipping failure degrades throughput, never correctness: the
        batch is re-sent pickled and counted as a fallback."""
        shard = max(plan.shards, key=lambda s: s.task_count)
        tasks = shard.instance.tasks[:6]
        delta = delta_from_tasks(shard.spec.shard_id, tasks)
        with PersistentWorkerPool(
            executor="process", worker_count=1, transport="shm"
        ) as pool:
            token = next_stream_token()
            pool.submit(
                0, _pool_open, token, shard.spec.shard_id,
                shard.instance.drivers, shard.instance.cost_model,
                BatchConfig(window_s=WINDOW_S),
            ).result()
            shipper = pool.shipper

            def refuse(_delta):
                raise OSError("no shared memory left")

            shipper.ship_delta = refuse
            count = pool.submit_shipment(
                0, _pool_append, (shard.spec.shard_id, tasks), token, shard.spec.shard_id
            ).result()
            assert count == delta.task_count
            assert pool.stats.pickle_fallbacks == 1
            assert pool.stats.pickle_bytes >= delta_wire_bytes(delta)

            # The same single path carries offline shards: a refused
            # shipment falls back the same way, result still correct.
            request = ShardWorkRequest(
                shard.spec.shard_id, shard.driver_count, shard.task_count, "greedy"
            )
            sub = shard.instance
            args = (shard.spec.shard_id, sub.tasks), sub.drivers, sub.cost_model, request
            solved = pool.submit_shipment(0, solve_shard, *args).result()
            direct = solve_shard(*args)
            assert solved.plans == direct.plans
            assert solved.total_value == direct.total_value
            assert pool.stats.pickle_fallbacks == 2
            assert pool.stats.shm_shipments == 0


class TestStreamWorkerEntry:
    def test_pool_append_opens_a_delta_and_its_descriptor_alike(self, plan):
        """The one append verb returns the same running count whether the
        batch arrives whole or as a shared-memory descriptor."""
        shard = max(plan.shards, key=lambda s: s.task_count)
        shard_id = shard.spec.shard_id
        tasks = shard.instance.tasks
        deltas = [delta_from_tasks(shard_id, tasks[:4]), delta_from_tasks(shard_id, tasks[4:9])]
        whole, shipped = next_stream_token(), next_stream_token()
        shipper = ShmShipper()
        try:
            for token in (whole, shipped):
                _pool_open(
                    token, shard_id, shard.instance.drivers,
                    shard.instance.cost_model, BatchConfig(window_s=WINDOW_S),
                )
            counts = [
                (
                    _pool_append(delta, whole, shard_id),
                    _pool_append(shipper.ship_delta(delta), shipped, shard_id),
                )
                for delta in deltas
            ]
            assert counts == [(4, 4), (9, 9)]
        finally:
            shipper.close()
            for token in (whole, shipped):
                _pool_discard(token, shard_id)


class TestThePoolOwnsTheWire:
    """``submit_shipment`` is the only flattener: an inline slot gets the
    caller's objects, a process slot one flat record per shipment."""

    @staticmethod
    def _count(monkeypatch, name):
        calls = []
        original = getattr(pool_module, name)

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(pool_module, name, counting)
        return calls

    @staticmethod
    def _stream(instance, executor, transport, batches):
        with DistributedCoordinator(
            SpatialPartitioner(PORTO, 2, 2),
            executor=executor,
            max_workers=2,
            transport=transport,
        ) as coordinator:
            session = coordinator.open_stream(
                instance.drivers, instance.cost_model, config=BatchConfig(window_s=WINDOW_S)
            )
            with session:
                for batch in batches:
                    session.append_batch(batch)
                resident = {
                    shard.shard_id: _SESSIONS.get((session._token, shard.shard_id))
                    for shard in session._shards
                }
                return session.finish(), resident

    def test_a_serial_stream_shares_the_callers_tasks(self, instance, monkeypatch):
        flattened = self._count(monkeypatch, "delta_from_tasks")
        rebuilt = self._count(monkeypatch, "tasks_from_delta")
        batches = window_batches(instance.tasks, WINDOW_S)
        result, resident = self._stream(instance, "serial", "pickle", batches)
        assert flattened == [] and rebuilt == []
        held = [
            task for session in resident.values() if session is not None
            for task in session._instance.tasks
        ]
        staffed = sum(
            count
            for session, count in zip(resident.values(), result.report.per_shard_task_counts)
            if session is not None
        )
        assert len(held) == staffed > 0
        callers = {id(task) for batch in batches for task in batch}
        assert all(id(task) in callers for task in held)

    @pytest.mark.parametrize("transport", ["pickle", "shm"])
    def test_a_process_stream_flattens_once_per_shard_and_batch(
        self, instance, monkeypatch, transport
    ):
        flattened = self._count(monkeypatch, "delta_from_tasks")
        batches = window_batches(instance.tasks, WINDOW_S)
        router = ZonePartition.from_grid(PORTO, 2, 2)
        staffed = set(router.route(d.source for d in instance.drivers).tolist())
        expected = sorted(
            (shard, position)
            for position, batch in enumerate(batches)
            for shard in set(router.route(t.source for t in batch).tolist()) & staffed
        )
        self._stream(instance, "process", transport, batches)
        position_of = {id(task): p for p, batch in enumerate(batches) for task in batch}
        assert sorted(
            (shard_id, position_of[id(tasks[0])]) for shard_id, tasks in flattened
        ) == expected

    @pytest.mark.parametrize("transport", ["pickle", "shm"])
    def test_a_process_solve_flattens_each_live_shard_once(
        self, instance, plan, monkeypatch, transport
    ):
        """An offline shard crosses the pipe as one task delta: each live
        shard's whole task tuple is flattened once, through the stream's
        ``delta_from_tasks``."""
        flattened = self._count(monkeypatch, "delta_from_tasks")
        with DistributedCoordinator(
            SpatialPartitioner(PORTO, 2, 2), executor="process", max_workers=2,
            transport=transport,
        ) as coordinator:
            coordinator.solve(instance, pool=coordinator.stream_pool())
        live = {
            s.spec.shard_id: s.instance.tasks
            for s in plan.shards
            if s.task_count and s.driver_count
        }
        assert sorted(shard_id for shard_id, _tasks in flattened) == sorted(live)
        assert all(tasks == live[shard_id] for shard_id, tasks in flattened)


class TestTransportParity:
    """Parity contract 16: shm == pickle merges, bit for bit."""

    def _offline(self, instance, transport):
        with DistributedCoordinator(
            SpatialPartitioner(PORTO, 2, 2),
            executor="process",
            max_workers=2,
            transport=transport,
        ) as coordinator:
            result = coordinator.solve(instance, pool=coordinator.stream_pool())
            prefix = coordinator.stream_pool().shipper.segment_prefix if transport == "shm" else None
        if prefix is not None:
            assert shm_entries(prefix) == []
        return result

    def test_offline_shm_matches_pickle_and_serial(self, instance):
        shm = self._offline(instance, "shm")
        pickle_ = self._offline(instance, "pickle")
        with DistributedCoordinator(
            SpatialPartitioner(PORTO, 2, 2), executor="serial"
        ) as reference:
            serial = reference.solve(instance)
        assert solve_fingerprint(shm) == solve_fingerprint(pickle_)
        assert solve_fingerprint(shm) == solve_fingerprint(serial)
        # The reports tell the transports apart even though the merges can't.
        assert shm.report.transport == "shm"
        assert pickle_.report.transport == "pickle"
        assert shm.report.shm_bytes > 0
        assert 0 < shm.report.bytes_over_pipe < pickle_.report.bytes_over_pipe
        assert shm.report.pickle_fallbacks == 0

    def test_offline_shm_without_a_pool_argument(self, instance):
        """``solve()`` with no ``pool=`` runs on the coordinator's own pool,
        of its own configuration — shm included — and ``close()`` tears it
        down completely."""
        import multiprocessing

        stale = set(shm_entries("repro-shm-"))
        with DistributedCoordinator(
            SpatialPartitioner(PORTO, 2, 2),
            executor="process",
            transport="shm",
            max_workers=2,
        ) as coordinator:
            shm = coordinator.solve(instance)
            assert coordinator.current_pool.transport == "shm"
        assert coordinator.current_pool is None
        assert multiprocessing.active_children() == []
        assert set(shm_entries("repro-shm-")) <= stale
        with DistributedCoordinator(SpatialPartitioner(PORTO, 2, 2)) as serial_coordinator:
            serial = serial_coordinator.solve(instance)
        assert solve_fingerprint(shm) == solve_fingerprint(serial)
        assert shm.report.transport == "shm"
        assert shm.report.shm_bytes > 0
        assert shm.report.pickle_fallbacks == 0

    def _stream(self, instance, config, transport):
        with DistributedCoordinator(
            SpatialPartitioner(PORTO, 2, 2),
            executor="process",
            max_workers=2,
            transport=transport,
        ) as coordinator:
            result = coordinator.solve_stream(instance, config=config)
            prefix = coordinator.stream_pool().shipper.segment_prefix if transport == "shm" else None
        if prefix is not None:
            assert shm_entries(prefix) == []
        return result

    def test_stream_shm_matches_pickle_and_serial(self, instance):
        config = BatchConfig(window_s=WINDOW_S)
        shm = self._stream(instance, config, "shm")
        pickle_ = self._stream(instance, config, "pickle")
        with DistributedCoordinator(
            SpatialPartitioner(PORTO, 2, 2), executor="serial"
        ) as reference:
            serial = reference.solve_stream(instance, config=config)
        assert stream_fingerprint(shm) == stream_fingerprint(pickle_)
        assert stream_fingerprint(shm) == stream_fingerprint(serial)
        assert shm.report.transport == "shm"
        assert shm.report.shm_bytes > 0
        assert shm.report.pickle_fallbacks == 0
        # A multi-batch stream recycles segments instead of allocating fresh
        # ones per batch — that's the steady-state behaviour the free list
        # exists for.
        assert shm.report.segment_reuses > 0

    def test_consecutive_streams_report_their_own_traffic(self, instance):
        """Pool stats are cumulative; per-stream reports must diff against
        the mark at open, so back-to-back streams don't double count."""
        config = BatchConfig(window_s=WINDOW_S)
        with DistributedCoordinator(
            SpatialPartitioner(PORTO, 2, 2),
            executor="process",
            max_workers=2,
            transport="shm",
        ) as coordinator:
            first = coordinator.solve_stream(instance, config=config)
            second = coordinator.solve_stream(instance, config=config)
        assert first.report.shm_bytes == second.report.shm_bytes
        assert first.report.bytes_over_pipe > 0
        pool_total = first.report.shm_bytes + second.report.shm_bytes
        assert pool_total == 2 * first.report.shm_bytes
