"""The dispatch service end to end: ingestion, epochs, parity, teardown.

Each test drives the real asyncio gateway with ``asyncio.run`` — no mocks:
orders go through the ingestion queue, the batcher, the per-city streaming
session and (where parametrised) a real worker pool.
"""

import asyncio

import pytest

from repro.distributed import DistributedCoordinator, SpatialPartitioner
from repro.distributed.pool import _SESSIONS
from repro.geo import PORTO
from repro.market.instance import MarketInstance
from repro.online.batch import BatchConfig
from repro.service import DispatchService, replay_ingested

from ..conftest import build_random_instance

WINDOW_S = 600.0
CONFIG = BatchConfig(window_s=WINDOW_S)


@pytest.fixture(scope="module")
def instance():
    return build_random_instance(task_count=60, driver_count=15, seed=37)


@pytest.fixture(scope="module")
def second_instance():
    return build_random_instance(task_count=50, driver_count=12, seed=38)


def ordered_tasks(instance):
    return sorted(instance.tasks, key=lambda t: t.publish_ts)


def fingerprint(result):
    return (
        result.solution.assignment(),
        tuple((p.driver_id, p.task_indices, p.profit) for p in result.solution.plans),
        result.rejected_tasks,
    )


async def feed_city(service, city, tasks):
    return [await service.submit(city, task) for task in tasks]


class TestServiceOutcomes:
    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_service_matches_solve_stream(self, instance, executor):
        """The headline: orders trickled through the gateway one at a time
        produce the exact merged outcome of a direct ``solve_stream``."""

        async def scenario():
            async with DispatchService() as service:
                service.register_city(
                    "porto", instance.drivers, executor=executor, workers=2,
                    config=CONFIG,
                )
                receipts = await feed_city(
                    service, "porto", ordered_tasks(instance)
                )
                results = await service.finish()
                return receipts, results["porto"]

        receipts, served = asyncio.run(scenario())
        with DistributedCoordinator(
            SpatialPartitioner(PORTO, 2, 2), executor="serial"
        ) as coordinator:
            reference = coordinator.solve_stream(
                MarketInstance(
                    drivers=instance.drivers,
                    tasks=tuple(ordered_tasks(instance)),
                    cost_model=instance.cost_model,
                ),
                config=CONFIG,
            )
        assert fingerprint(served) == fingerprint(reference)
        assert all(r.done for r in receipts)
        assert all(r.latency_s >= 0.0 for r in receipts)

    def test_parity_contract_15_replay(self, instance):
        """Contract 15: service outcome == offline replay of the batches the
        service itself recorded."""

        async def scenario():
            async with DispatchService() as service:
                runtime = service.register_city(
                    "porto", instance.drivers, config=CONFIG
                )
                await feed_city(service, "porto", ordered_tasks(instance))
                results = await service.finish()
                return runtime, results["porto"]

        runtime, served = asyncio.run(scenario())
        replayed = replay_ingested(runtime, epoch=0)
        assert fingerprint(served) == fingerprint(replayed)

    def test_multi_city_isolation(self, instance, second_instance):
        """Two tenants on one gateway: each city's outcome is identical to
        serving that city alone — tenancy adds no cross-talk."""

        async def together():
            async with DispatchService() as service:
                service.register_city("porto-a", instance.drivers, config=CONFIG)
                service.register_city(
                    "porto-b", second_instance.drivers, config=CONFIG
                )
                a = ordered_tasks(instance)
                b = ordered_tasks(second_instance)
                # Interleave the two cities' floods.
                for i in range(max(len(a), len(b))):
                    if i < len(a):
                        await service.submit("porto-a", a[i])
                    if i < len(b):
                        await service.submit("porto-b", b[i])
                return await service.finish()

        async def alone(name, inst):
            async with DispatchService() as service:
                service.register_city(name, inst.drivers, config=CONFIG)
                await feed_city(service, name, ordered_tasks(inst))
                return (await service.finish())[name]

        both = asyncio.run(together())
        only_a = asyncio.run(alone("porto-a", instance))
        only_b = asyncio.run(alone("porto-b", second_instance))
        assert fingerprint(both["porto-a"]) == fingerprint(only_a)
        assert fingerprint(both["porto-b"]) == fingerprint(only_b)

    def test_epoch_rotation_on_one_warm_pool(self, instance):
        """rotate() closes an epoch and reopens on the same pool; each epoch
        replays independently (parity per epoch)."""

        async def scenario():
            async with DispatchService() as service:
                runtime = service.register_city(
                    "porto", instance.drivers, executor="process", workers=2,
                    config=CONFIG,
                )
                pool = runtime.coordinator._stream_pool
                tasks = ordered_tasks(instance)
                half = len(tasks) // 2
                await feed_city(service, "porto", tasks[:half])
                first = await service.rotate("porto")
                assert runtime.coordinator._stream_pool is pool  # warm reuse
                await feed_city(service, "porto", tasks[half:])
                final = (await service.finish())["porto"]
                return runtime, first, final

        runtime, first, final = asyncio.run(scenario())
        assert runtime.metrics.epochs.value == 2
        assert fingerprint(first) == fingerprint(replay_ingested(runtime, 0))
        assert fingerprint(final) == fingerprint(replay_ingested(runtime, 1))


class TestBackpressureAndHealth:
    def test_backpressure_pauses_ingestion(self, instance):
        """A depth-1 threshold on a slow pooled shard must trip the barrier
        (under the serial policy it never can)."""

        async def scenario(executor, depth):
            async with DispatchService(backpressure_depth=depth) as service:
                service.register_city(
                    "porto", instance.drivers, executor=executor, workers=2,
                    config=CONFIG, max_batch=4,
                )
                await feed_city(service, "porto", ordered_tasks(instance))
                await service.finish()
                return service.health()["cities"]["porto"]["backpressure_events"]

        assert asyncio.run(scenario("process", 1)) > 0
        assert asyncio.run(scenario("serial", 1)) == 0

    def test_health_snapshot_shape(self, instance):
        async def scenario():
            async with DispatchService() as service:
                service.register_city("porto", instance.drivers, config=CONFIG)
                await feed_city(service, "porto", ordered_tasks(instance))
                mid = service.health()
                await service.finish()
                done = service.health()
                return mid, done

        mid, done = asyncio.run(scenario())
        assert mid["status"] == "ok"
        city = mid["cities"]["porto"]
        # Mid-flood, every order is either still on the ingest queue or
        # already counted by the city.
        assert mid["ingest_queue_depth"] + city["orders"] == 60
        assert "shard_queue_depth" in city
        assert city["dispatch_latency"]["count"] >= 0
        assert done["cities"]["porto"]["orders"] == 60
        assert done["cities"]["porto"]["serve_rate"] is not None

    def test_unknown_city_fails_fast(self, instance):
        async def scenario():
            async with DispatchService() as service:
                service.register_city("porto", instance.drivers, config=CONFIG)
                with pytest.raises(KeyError, match="unknown city"):
                    await service.submit("atlantis", instance.tasks[0])

        asyncio.run(scenario())

    def test_duplicate_city_rejected(self, instance):
        async def scenario():
            async with DispatchService() as service:
                service.register_city("porto", instance.drivers, config=CONFIG)
                with pytest.raises(ValueError, match="already registered"):
                    service.register_city("porto", instance.drivers, config=CONFIG)

        asyncio.run(scenario())


class TestTeardown:
    def test_aexit_discards_worker_sessions(self, instance):
        """Leaving the service without finish() must not leak sessions into
        the (in-process, for serial) registry — the service-shutdown error
        path of the abandoned-stream bugfix."""
        before = len(_SESSIONS)

        async def scenario():
            async with DispatchService() as service:
                service.register_city("porto", instance.drivers, config=CONFIG)
                await feed_city(service, "porto", ordered_tasks(instance)[:10])
                assert len(_SESSIONS) > before  # live sessions resident
                # no finish(): __aexit__ must clean up

        asyncio.run(scenario())
        assert len(_SESSIONS) == before

    def test_aexit_leaves_no_child_processes(self, instance):
        import multiprocessing

        async def scenario():
            async with DispatchService() as service:
                service.register_city(
                    "porto", instance.drivers, executor="process", workers=2,
                    config=CONFIG,
                )
                await feed_city(service, "porto", ordered_tasks(instance)[:10])
                assert multiprocessing.active_children()  # workers live

        asyncio.run(scenario())
        assert multiprocessing.active_children() == []

    def test_submit_after_shutdown_raises(self, instance):
        async def scenario():
            service = DispatchService()
            async with service:
                service.register_city("porto", instance.drivers, config=CONFIG)
            with pytest.raises(RuntimeError, match="shut down"):
                await service.submit("porto", instance.tasks[0])

        asyncio.run(scenario())

    def test_ingestion_failure_is_surfaced(self, instance):
        """A poisoned ingest (out-of-order publish) fails finish() with the
        original error chained, and poisons later submits."""
        tasks = ordered_tasks(instance)

        async def scenario():
            async with DispatchService() as service:
                service.register_city("porto", instance.drivers, config=CONFIG)
                await service.submit("porto", tasks[-1])  # latest first
                await service.submit("porto", tasks[0])  # violates watermark
                with pytest.raises(RuntimeError, match="ingestion failed") as info:
                    await service.finish()
                assert isinstance(info.value.__cause__, ValueError)
                with pytest.raises(RuntimeError, match="ingestion failed"):
                    await service.submit("porto", tasks[1])

        asyncio.run(scenario())
