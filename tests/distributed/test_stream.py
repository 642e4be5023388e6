"""Stream==replay parity for the persistent shard pool.

The streaming coordinator promises that ``solve_stream()`` — per-shard
streaming sessions on a persistent worker pool, fed each batch's tasks (as
incremental ``ShardPayloadDelta``s on a process slot) — is **bit-identical** to a serial per-shard
``BatchedSimulator.run_stream`` replay of the same batch schedule, under
every executor policy.  Today that parity is pinned here, including the
``process`` executor (the one that actually crosses a pickle boundary), the
pool-reuse path and the skew-aware rebalance's determinism contract
(rebalanced stream == from-start stream over the final regions).
"""

import pytest

from repro.core import DriverPlan
from repro.distributed import (
    DistributedCoordinator,
    RebalancePolicy,
    SpatialPartitioner,
    ZonePartition,
)
from repro.geo import PORTO
from repro.market import StreamingMarketInstance
from repro.online.batch import BatchConfig, BatchedSimulator, stream_schedule, window_batches

from ..conftest import build_random_instance, stream_from_start

WINDOW_S = 600.0
EXECUTORS = ("serial", "process")


@pytest.fixture(scope="module")
def instance():
    return build_random_instance(task_count=60, driver_count=15, seed=37)


@pytest.fixture(scope="module")
def config():
    return BatchConfig(window_s=WINDOW_S)


def stream_fingerprint(result):
    """Everything that must be identical across executors."""
    return (
        result.solution.plans,
        result.solution.rejected_tasks,
        result.rejected_tasks,
        result.report.total_value,
        result.report.served_count,
        result.report.per_shard_task_counts,
    )


def serial_replay_reference(instance, rows, cols, config):
    """The contract's reference: route the same batch schedule to per-shard
    ``run_stream`` replays in-process and merge their solutions by hand.

    Returns the merged plans — one per driver in fleet order, in the global
    arrival-order task indices the streamed solution uses, arrival times
    included — and the rejected orders (a driverless shard loses every
    publishable order it owns)."""
    router = ZonePartition.from_grid(PORTO, rows, cols)
    driver_of = router.route(d.source for d in instance.drivers)
    shard_drivers = {
        s: tuple(
            d for d, a in zip(instance.drivers, driver_of) if int(a) == s
        )
        for s in range(router.shard_count)
    }
    batches = window_batches(instance.tasks, config.window_s)
    global_of = {
        task.task_id: g for g, task in enumerate(t for batch in batches for t in batch)
    }
    shard_batches = {s: [] for s in range(router.shard_count)}
    for batch in batches:
        owners = router.route(t.source for t in batch)
        for s in range(router.shard_count):
            members = [t for t, a in zip(batch, owners) if int(a) == s]
            if members:
                shard_batches[s].append(members)

    plans = {}
    rejected = set()
    for s in range(router.shard_count):
        if not shard_drivers[s]:
            rejected.update(
                global_of[t.task_id]
                for batch in shard_batches[s]
                for t in batch
                if t.is_publishable
            )
            continue
        stream = StreamingMarketInstance(shard_drivers[s], instance.cost_model)
        solution = BatchedSimulator(stream, config).run_stream(shard_batches[s])
        to_global = [global_of[t.task_id] for t in stream.tasks]
        for plan in solution.plans:
            plans[plan.driver_id] = DriverPlan(
                plan.driver_id,
                tuple(to_global[m] for m in plan.task_indices),
                plan.profit,
                plan.arrival_times,
            )
        rejected.update(to_global[m] for m in solution.rejected_tasks)
    return (
        tuple(plans[d.driver_id] for d in instance.drivers),
        tuple(sorted(rejected)),
    )


class TestStreamReplayParity:
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_solve_stream_matches_serial_per_shard_replay(self, instance, config, executor):
        """The headline contract, pinned per executor — including process."""
        with DistributedCoordinator(
            SpatialPartitioner(PORTO, 2, 2), executor=executor, max_workers=2
        ) as coordinator:
            result = coordinator.solve_stream(instance, config=config)
        ref_plans, ref_rejected = serial_replay_reference(instance, 2, 2, config)
        assert any(plan.arrival_times for plan in ref_plans)
        assert result.solution.plans == ref_plans
        assert result.solution.rejected_tasks == result.rejected_tasks == ref_rejected

    def test_executor_fingerprints_identical(self, instance, config):
        partitioner = SpatialPartitioner(PORTO, 2, 2)
        results = {}
        for executor in EXECUTORS:
            with DistributedCoordinator(
                partitioner, executor=executor, max_workers=2
            ) as coordinator:
                results[executor] = coordinator.solve_stream(instance, config=config)
        serial = stream_fingerprint(results["serial"])
        assert stream_fingerprint(results["process"]) == serial

    def test_single_shard_equals_plain_stream(self, instance, config):
        """A 1x1 grid is exactly an unsharded ``run_stream`` replay: the
        same solution, plan for plan."""
        with DistributedCoordinator(
            SpatialPartitioner(PORTO, 1, 1), executor="serial"
        ) as coordinator:
            result = coordinator.solve_stream(instance, config=config)
        stream = StreamingMarketInstance(instance.drivers, instance.cost_model)
        solution = BatchedSimulator(stream, config).run_stream(
            window_batches(instance.tasks, config.window_s)
        )
        assert result.solution.plans == solution.plans
        assert result.solution.rejected_tasks == result.rejected_tasks == solution.rejected_tasks
        assert result.solution.summary() == solution.summary()

    def test_explicit_batches_match_default_windowing(self, instance, config):
        partitioner = SpatialPartitioner(PORTO, 2, 2)
        with DistributedCoordinator(partitioner, executor="serial") as coordinator:
            by_default = coordinator.solve_stream(instance, config=config)
            by_batches = coordinator.solve_stream(
                instance,
                window_batches(instance.tasks, config.window_s),
                config=config,
            )
        assert stream_fingerprint(by_default) == stream_fingerprint(by_batches)

    def test_unpublishable_tasks_stay_in_the_streamed_instance(self, config):
        """The default schedule must carry non-publishable tasks too, so the
        streamed solution shares metric denominators with a full replay."""
        from dataclasses import replace

        from repro.online.batch import run_batched

        base = build_random_instance(task_count=40, driver_count=10, seed=11)
        # Price a few tasks above their WTP so they fail individual rationality.
        tasks = tuple(
            replace(task, wtp=task.price / 2.0) if i % 7 == 0 else task
            for i, task in enumerate(base.tasks)
        )
        instance = base.with_tasks(tasks)
        assert any(not t.is_publishable for t in instance.tasks)

        replay = run_batched(instance, config=config)
        with DistributedCoordinator(
            SpatialPartitioner(PORTO, 1, 1), executor="serial"
        ) as coordinator:
            streamed = coordinator.solve_stream(instance, config=config)
        assert streamed.solution.instance.task_count == instance.task_count
        assert streamed.solution.total_value == replay.total_value
        assert streamed.solution.served_count == replay.served_count
        assert streamed.solution.serve_rate == replay.serve_rate

    def test_driverless_shards_reject_their_orders(self, instance, config):
        # An 8x8 grid over 15 drivers leaves most cells driverless.
        partitioner = SpatialPartitioner(PORTO, 8, 8)
        with DistributedCoordinator(partitioner, executor="serial") as serial:
            a = serial.solve_stream(instance, config=config)
        with DistributedCoordinator(
            partitioner, executor="process", max_workers=2
        ) as pooled:
            b = pooled.solve_stream(instance, config=config)
        assert stream_fingerprint(a) == stream_fingerprint(b)
        assert a.report.shard_count == 64
        assert len(a.rejected_tasks) > 0


class TestPersistentPoolReuse:
    def test_consecutive_streams_on_one_pool_are_identical(self, instance, config):
        """The amortisation path: one pool, many streams, no cross-talk."""
        with DistributedCoordinator(
            SpatialPartitioner(PORTO, 2, 2), executor="process", max_workers=2
        ) as coordinator:
            first = coordinator.solve_stream(instance, config=config)
            pool = coordinator._stream_pool
            second = coordinator.solve_stream(instance, config=config)
            assert coordinator._stream_pool is pool  # same live pool, no refork
        assert stream_fingerprint(first) == stream_fingerprint(second)

    def test_incremental_append_batch_api(self, instance, config):
        with DistributedCoordinator(
            SpatialPartitioner(PORTO, 2, 2), executor="serial"
        ) as coordinator:
            session = coordinator.open_stream(
                instance.drivers, instance.cost_model, config=config
            )
            for batch in window_batches(instance.tasks, config.window_s):
                session.append_batch(batch)
            incremental = session.finish()
            whole = coordinator.solve_stream(instance, config=config)
        assert stream_fingerprint(incremental) == stream_fingerprint(whole)

    def test_finish_twice_raises(self, instance, config):
        with DistributedCoordinator(
            SpatialPartitioner(PORTO, 1, 1), executor="serial"
        ) as coordinator:
            session = coordinator.open_stream(instance.drivers, instance.cost_model)
            session.finish()
            with pytest.raises(RuntimeError):
                session.finish()
            with pytest.raises(RuntimeError):
                session.append_batch(instance.tasks[:1])

    def test_out_of_order_batches_raise(self, instance, config):
        batches = window_batches(instance.tasks, config.window_s)
        assert len(batches) >= 3
        with DistributedCoordinator(
            SpatialPartitioner(PORTO, 1, 1), executor="serial"
        ) as coordinator:
            session = coordinator.open_stream(
                instance.drivers, instance.cost_model, config=config
            )
            session.append_batch(batches[-1])
            with pytest.raises(ValueError):
                session.append_batch(batches[0])
                session.finish()


class TestSkewAwareRebalance:
    def test_split_fires_and_matches_from_start_partition(self, instance, config):
        """Determinism contract: rebalanced stream == from-start stream over
        the final (post-rebalance) regions."""
        policy = RebalancePolicy(
            check_every_batches=1, hot_factor=1.2, min_split_tasks=4
        )
        with DistributedCoordinator(
            SpatialPartitioner(PORTO, 2, 2), executor="serial"
        ) as coordinator:
            rebalanced = coordinator.solve_stream(
                instance, config=config, rebalance=policy
            )
            assert rebalanced.report.rebalance_count > 0
            assert rebalanced.report.shard_count > 4
        from_start = stream_from_start(
            instance,
            PORTO,
            rebalanced.regions,
            stream_schedule(instance.tasks, config.window_s),
            config,
        )
        assert stream_fingerprint(rebalanced) == stream_fingerprint(from_start)

    def test_merge_fires_for_cold_shards(self, instance, config):
        # A fine grid leaves many near-empty shards; an aggressive cold
        # factor forces merges (splits disabled via a huge min_split_tasks).
        policy = RebalancePolicy(
            check_every_batches=1,
            hot_factor=1e9,
            cold_factor=2.0,
            min_split_tasks=10**9,
        )
        with DistributedCoordinator(
            SpatialPartitioner(PORTO, 3, 3), executor="serial"
        ) as coordinator:
            merged = coordinator.solve_stream(instance, config=config, rebalance=policy)
            assert merged.report.rebalance_count > 0
            assert merged.report.shard_count < 9
        from_start = stream_from_start(
            instance,
            PORTO,
            merged.regions,
            stream_schedule(instance.tasks, config.window_s),
            config,
        )
        assert stream_fingerprint(merged) == stream_fingerprint(from_start)

    def test_rebalance_on_process_pool(self, instance, config):
        """Split/merge replay works across the pickle boundary too."""
        policy = RebalancePolicy(
            check_every_batches=2, hot_factor=1.5, min_split_tasks=8
        )
        with DistributedCoordinator(
            SpatialPartitioner(PORTO, 2, 2), executor="serial"
        ) as serial:
            a = serial.solve_stream(instance, config=config, rebalance=policy)
        with DistributedCoordinator(
            SpatialPartitioner(PORTO, 2, 2), executor="process", max_workers=2
        ) as pooled:
            b = pooled.solve_stream(instance, config=config, rebalance=policy)
        assert a.report.rebalance_count == b.report.rebalance_count
        assert stream_fingerprint(a) == stream_fingerprint(b)
