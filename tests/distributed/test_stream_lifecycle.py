"""Stream-lifecycle edge cases: abandonment, worker death, teardown.

The streaming engine's happy path is pinned by ``test_stream.py``; this file
pins the *unhappy* paths the dispatch service leans on:

* an abandoned stream (opened, maybe appended to, never finished) must not
  leak worker-resident ``ShardStreamSession`` state into the persistent
  pool — ``close()`` / the context manager discards it on every error path;
* a worker death mid-stream surfaces as a diagnostic
  ``WorkerPoolBrokenError`` naming the slot (pool level) and the shard
  (stream level), with the whole pool left *closed*, never half-poisoned;
* pool teardown with queued work cancels the backlog instead of draining it
  (the Ctrl-C path must return promptly).
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.distributed import (
    DistributedCoordinator,
    PersistentWorkerPool,
    SpatialPartitioner,
    WorkerPoolBrokenError,
)
from repro.distributed.pool import _SESSIONS, _pool_append, _pool_session_count
from repro.geo import PORTO
from repro.online.batch import BatchConfig, window_batches

from ..conftest import build_random_instance
from .test_transport import shm_entries

WINDOW_S = 600.0


@pytest.fixture(scope="module")
def instance():
    return build_random_instance(task_count=40, driver_count=10, seed=21)


@pytest.fixture(scope="module")
def config():
    return BatchConfig(window_s=WINDOW_S)


def open_with_batches(coordinator, instance, config, batches=1):
    session = coordinator.open_stream(
        instance.drivers, instance.cost_model, config=config
    )
    for batch in window_batches(instance.tasks, config.window_s)[:batches]:
        session.append_batch(batch)
    return session


class TestAbandonedStreams:
    """Satellite 1: ``close()`` discards worker-side sessions."""

    def test_close_discards_inproc_sessions(self, instance, config):
        with DistributedCoordinator(
            SpatialPartitioner(PORTO, 2, 2), executor="serial"
        ) as coordinator:
            before = len(_SESSIONS)
            session = open_with_batches(coordinator, instance, config)
            assert len(_SESSIONS) > before  # sessions are resident
            session.close()
            assert len(_SESSIONS) == before
            assert session.closed

    def test_context_manager_discards_on_error(self, instance, config):
        before = len(_SESSIONS)
        with DistributedCoordinator(
            SpatialPartitioner(PORTO, 2, 2), executor="serial"
        ) as coordinator:
            with pytest.raises(RuntimeError, match="boom"):
                with coordinator.open_stream(
                    instance.drivers, instance.cost_model, config=config
                ) as session:
                    session.append_batch(instance.tasks[:4])
                    raise RuntimeError("boom")
        assert len(_SESSIONS) == before
        assert session.closed

    def test_close_is_idempotent_and_finish_after_close_raises(self, instance, config):
        with DistributedCoordinator(
            SpatialPartitioner(PORTO, 1, 1), executor="serial"
        ) as coordinator:
            session = open_with_batches(coordinator, instance, config)
            session.close()
            session.close()
            with pytest.raises(RuntimeError):
                session.finish()
            with pytest.raises(RuntimeError):
                session.append_batch(instance.tasks[:1])

    def test_close_after_finish_is_noop(self, instance, config):
        with DistributedCoordinator(
            SpatialPartitioner(PORTO, 1, 1), executor="serial"
        ) as coordinator:
            with coordinator.open_stream(
                instance.drivers, instance.cost_model, config=config
            ) as session:
                for batch in window_batches(instance.tasks, config.window_s):
                    session.append_batch(batch)
                result = session.finish()
        assert result.report.batch_count > 0
        assert len(_SESSIONS) == 0

    def test_abandoned_stream_then_new_stream_on_same_pool(self, instance, config):
        """The pool survives an abandoned stream, and the next stream on the
        same warm workers is unaffected (bit-identical to a fresh solve)."""
        from .test_stream import stream_fingerprint

        with DistributedCoordinator(
            SpatialPartitioner(PORTO, 2, 2), executor="process", max_workers=2
        ) as coordinator:
            abandoned = open_with_batches(coordinator, instance, config)
            pool = coordinator._stream_pool
            abandoned.close()
            # Worker-side registries really are empty again on every slot.
            for slot in range(pool.worker_count):
                assert pool.submit(slot, _pool_session_count).result() == 0
            fresh = coordinator.solve_stream(instance, config=config)
            assert coordinator._stream_pool is pool  # same warm pool
        with DistributedCoordinator(
            SpatialPartitioner(PORTO, 2, 2), executor="serial"
        ) as reference:
            expected = reference.solve_stream(instance, config=config)
        assert stream_fingerprint(fresh) == stream_fingerprint(expected)

    def test_worker_registry_empty_after_abandon_on_serial_pool(self, instance, config):
        with DistributedCoordinator(
            SpatialPartitioner(PORTO, 2, 2), executor="serial"
        ) as coordinator:
            session = open_with_batches(coordinator, instance, config)
            pool = coordinator._stream_pool
            session.close()
            # The serial slot's registry is this process's own: the
            # in-process count must be back to zero.
            assert pool.submit(0, _pool_session_count).result() == 0

    def test_pool_close_with_stream_still_open(self, instance, config):
        """Closing the pool under a live stream: the stream's own close()
        must still be safe (nothing to discard into a dead pool)."""
        coordinator = DistributedCoordinator(
            SpatialPartitioner(PORTO, 2, 2), executor="process", max_workers=2
        )
        session = open_with_batches(coordinator, instance, config)
        coordinator.close()  # pool gone, stream still open
        session.close()  # must not raise
        assert session.closed
        with pytest.raises(RuntimeError):
            session.append_batch(instance.tasks[:1])


class TestBrokenWorkers:
    """Satellite 2: worker death -> diagnostic error, pool safely closed."""

    def test_pool_submit_after_death_names_slot(self):
        with PersistentWorkerPool(executor="process", worker_count=2) as pool:
            doomed = pool.submit(1, os._exit, 13)
            with pytest.raises(WorkerPoolBrokenError, match="slot 1/2"):
                doomed.result()
            assert pool.broken
            # The whole pool is closed — the surviving slot refuses too,
            # with the same diagnostic (not a bare "pool is closed").
            with pytest.raises(WorkerPoolBrokenError, match="died mid-call"):
                pool.submit(0, os.getpid)

    def test_stream_append_after_worker_death_names_shard(self, instance, config):
        with DistributedCoordinator(
            SpatialPartitioner(PORTO, 1, 1), executor="process", max_workers=1
        ) as coordinator:
            session = open_with_batches(coordinator, instance, config)
            pool = coordinator._stream_pool
            # Kill the worker the shard is pinned to, mid-stream.
            pool.submit(0, os._exit, 1)
            batches = window_batches(instance.tasks, config.window_s)
            with pytest.raises(WorkerPoolBrokenError, match="lost shard"):
                session.append_batch(batches[1])
                session.finish()
            assert session.closed
            assert pool.broken
            # A fresh stream on the coordinator reports the breakage too
            # rather than hanging or re-forking silently.
            with pytest.raises(WorkerPoolBrokenError):
                coordinator.solve_stream(instance, config=config, pool=pool)

    def test_coordinator_recovers_on_a_fresh_pool_after_worker_death(
        self, instance, config
    ):
        """A dead worker costs the coordinator its pool, not its future: the
        next stream opens a fresh pool instead of re-raising the stale death,
        and nothing of either pool outlives ``close()``."""
        import multiprocessing

        from .test_stream import stream_fingerprint

        stale = set(shm_entries("repro-shm-"))
        with DistributedCoordinator(
            SpatialPartitioner(PORTO, 2, 2),
            executor="process",
            max_workers=2,
            transport="shm",
        ) as coordinator:
            doomed = coordinator.stream_pool()
            with pytest.raises(WorkerPoolBrokenError, match="open a fresh pool"):
                doomed.submit(0, os._exit, 1).result()
            assert doomed.broken
            recovered = coordinator.solve_stream(instance, config=config)
            assert coordinator.current_pool is not doomed
            assert doomed.closed and not coordinator.current_pool.closed
        with DistributedCoordinator(
            SpatialPartitioner(PORTO, 2, 2), executor="serial"
        ) as reference:
            expected = reference.solve_stream(instance, config=config)
        assert stream_fingerprint(recovered) == stream_fingerprint(expected)
        assert multiprocessing.active_children() == []
        assert set(shm_entries("repro-shm-")) <= stale

    def test_serial_pool_never_breaks(self, instance, config):
        """The in-process policy has no worker to lose; a failing call
        surfaces as its own exception without closing the pool."""
        with PersistentWorkerPool(executor="serial") as pool:
            future = pool.submit(0, int, "not-a-number")
            with pytest.raises(ValueError):
                future.result()
            assert not pool.broken
            assert pool.submit(0, os.getpid).result() == os.getpid()


class TestShippingOntoADeadPool:
    """A closed or broken pool refuses a shipment before shipping or counting
    anything: no segment is created (and leaked), no phantom pickle bytes,
    no spurious fallback."""

    @staticmethod
    def _dead_pool(transport, state):
        pool = PersistentWorkerPool(executor="process", worker_count=1, transport=transport)
        if state == "broken":
            with pytest.raises(WorkerPoolBrokenError):
                pool.submit(0, os._exit, 1).result()
        else:
            pool.close()
        return pool

    @pytest.mark.parametrize("state", ["closed", "broken"])
    @pytest.mark.parametrize("transport", ["pickle", "shm"])
    def test_refused_before_shipping(self, instance, transport, state):
        batch = (0, instance.tasks[:5])
        stale = set(shm_entries("repro-shm-"))
        pool = self._dead_pool(transport, state)
        before = pool.stats.snapshot()
        error = WorkerPoolBrokenError if state == "broken" else RuntimeError
        with pytest.raises(error, match="died mid-call" if state == "broken" else "pool is closed"):
            pool.submit_shipment(0, _pool_append, batch, 1, 0)
        if transport == "shm":
            with pytest.raises(error):
                pool.shipper
        assert pool.stats.snapshot() == before
        assert set(shm_entries("repro-shm-")) <= stale


#: Script for the SIGINT regression: streams over shm, prints the shipper's
#: segment prefix, interrupts itself mid-stream.  The parent then scans
#: /dev/shm — the context managers' unwind must have unlinked every segment.
_SIGINT_SCRIPT = """
import os, signal
from repro.distributed import DistributedCoordinator, SpatialPartitioner
from repro.geo import PORTO, GeoPoint
from repro.market import Driver, Task
from repro.online.batch import BatchConfig

drivers = [
    Driver(f"d{i}", GeoPoint(41.15, -8.62), GeoPoint(41.16, -8.60), 0.0, 7200.0)
    for i in range(4)
]
tasks = [
    Task(f"t{i}", 0.0, GeoPoint(41.15, -8.61), GeoPoint(41.155, -8.605), 600.0, 1800.0, price=5.0)
    for i in range(8)
]
try:
    with DistributedCoordinator(
        SpatialPartitioner(PORTO, 1, 1), executor="process", max_workers=1,
        transport="shm",
    ) as coordinator:
        with coordinator.open_stream(drivers, config=BatchConfig(window_s=600.0)) as session:
            session.append_batch(tasks)
            print("PREFIX", coordinator.stream_pool().shipper.segment_prefix, flush=True)
            os.kill(os.getpid(), signal.SIGINT)
except KeyboardInterrupt:
    pass
print("CLEAN-EXIT", flush=True)
"""


#: Script for the resource-tracker regression: a fresh interpreter (so no
#: tracker exists before the pool forks its workers) streams over shm and
#: exits cleanly.  Workers attach segments untracked; if they registered
#: with their own resource trackers instead, this exact flow ends with
#: "leaked shared_memory objects" warnings on stderr at shutdown.
_TRACKER_SCRIPT = """
from repro.distributed import DistributedCoordinator, SpatialPartitioner
from repro.geo import PORTO, GeoPoint
from repro.market import Driver, Task
from repro.online.batch import BatchConfig

drivers = [
    Driver(f"d{i}", GeoPoint(41.15, -8.62), GeoPoint(41.16, -8.60), 0.0, 7200.0)
    for i in range(6)
]
tasks = [
    Task(f"t{i}", 60.0 * i, GeoPoint(41.15, -8.61), GeoPoint(41.155, -8.605),
         60.0 * i + 600.0, 60.0 * i + 1800.0, price=5.0)
    for i in range(40)
]
from repro.market import MarketInstance

instance = MarketInstance.create(drivers=tuple(drivers), tasks=tuple(tasks))
with DistributedCoordinator(
    SpatialPartitioner(PORTO, 2, 1), executor="process", max_workers=2,
    transport="shm",
) as coordinator:
    result = coordinator.solve_stream(instance, config=BatchConfig(window_s=600.0))
    assert result.report.shm_bytes > 0, "stream did not exercise the shm path"
    print("PREFIX", coordinator.stream_pool().shipper.segment_prefix, flush=True)
print("CLEAN-EXIT", flush=True)
"""


class TestShmSegmentLifecycle:
    """Satellite 4 of the transport PR: no teardown path leaks /dev/shm
    segments — not close(), not a worker death, not a SIGINT."""

    def test_close_unlinks_all_segments(self, instance, config):
        with DistributedCoordinator(
            SpatialPartitioner(PORTO, 2, 2), executor="process", max_workers=2,
            transport="shm",
        ) as coordinator:
            coordinator.solve_stream(instance, config=config)
            pool = coordinator._stream_pool
            prefix = pool.shipper.segment_prefix
            # Steady state keeps recycled segments alive on the free list...
            assert pool.stats.segments_created > 0
        # ...and pool teardown (the coordinator's __exit__) unlinks them all.
        assert shm_entries(prefix) == []

    def test_worker_death_unlinks_all_segments(self, instance, config):
        with DistributedCoordinator(
            SpatialPartitioner(PORTO, 1, 1), executor="process", max_workers=1,
            transport="shm",
        ) as coordinator:
            session = open_with_batches(coordinator, instance, config)
            pool = coordinator._stream_pool
            prefix = pool.shipper.segment_prefix
            pool.submit(0, os._exit, 1)
            batches = window_batches(instance.tasks, config.window_s)
            with pytest.raises(WorkerPoolBrokenError, match="lost shard"):
                session.append_batch(batches[1])
                session.finish()
            # The broken-worker shutdown already funnelled through
            # pool.close(), which closes the shipper: nothing left behind
            # even before the coordinator context exits.
            assert pool.broken
            assert shm_entries(prefix) == []
        assert shm_entries(prefix) == []

    @staticmethod
    def _run_script(script):
        repo_root = Path(__file__).resolve().parents[2]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(repo_root / "src"), env.get("PYTHONPATH", "")]
        )
        return subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, timeout=120, env=env,
        )

    def test_sigint_mid_stream_unlinks_all_segments(self):
        proc = self._run_script(_SIGINT_SCRIPT)
        assert "CLEAN-EXIT" in proc.stdout, proc.stderr
        prefix = next(
            line.split()[1] for line in proc.stdout.splitlines() if line.startswith("PREFIX")
        )
        assert prefix.startswith("repro-shm-")
        assert shm_entries(prefix) == []

    def test_worker_attaches_make_no_resource_tracker_noise(self):
        """Readers attach segments outside the resource tracker.  If they
        registered instead, every worker would grow a tracker that warns
        about (and re-unlinks) the shipper's segments at exit — exactly what
        a plain ``SharedMemory(name=...)`` attach does before Python 3.13."""
        proc = self._run_script(_TRACKER_SCRIPT)
        assert proc.returncode == 0, proc.stderr
        assert "CLEAN-EXIT" in proc.stdout, proc.stderr
        assert "resource_tracker" not in proc.stderr, proc.stderr
        assert "leaked shared_memory" not in proc.stderr, proc.stderr
        prefix = next(
            line.split()[1] for line in proc.stdout.splitlines() if line.startswith("PREFIX")
        )
        assert shm_entries(prefix) == []


class TestTeardownCancelsBacklog:
    """Satellite 3: teardown cancels queued work instead of draining it."""

    def test_close_cancels_queued_not_started_work(self):
        pool = PersistentWorkerPool(executor="process", worker_count=1)
        try:
            futures = [pool.submit(0, time.sleep, 0.2) for _ in range(8)]
            start = time.perf_counter()
        finally:
            pool.close()
        elapsed = time.perf_counter() - start
        # Draining the backlog would take ~1.6s; cancelling waits only for
        # the in-flight call and the (at most two) calls already handed to
        # the worker's pipe.
        assert elapsed < 1.0, f"close() drained the backlog ({elapsed:.2f}s)"
        states = [future.cancelled() for future in futures]
        assert any(states), "no queued future was cancelled"

    def test_close_can_still_drain_when_asked(self):
        pool = PersistentWorkerPool(executor="process", worker_count=1)
        futures = [pool.submit(0, time.sleep, 0.05) for _ in range(3)]
        pool.close(cancel_pending=False)
        assert all(future.result() is None for future in futures)
