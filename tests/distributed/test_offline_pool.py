"""Pooled offline solves and the stream's split/merge rule.

Two things land here:

* **Solves on a shared pool** — ``DistributedCoordinator.solve(pool=...)``
  dispatches its shard requests onto a warm pool the caller owns: every
  solver merges exactly as the serial solve does, degenerate shards are
  never submitted, the report (and a traced run's root span) describes the
  pool that ran, and consecutive solves and streams share the same slot
  executors.
* **The split/merge rule** — ``plan_rebalance_action`` under a
  :class:`RebalancePolicy`, which refuses knobs the rule cannot honour.
"""

import logging
import math

import pytest

from repro.distributed import (
    DistributedCoordinator,
    PersistentWorkerPool,
    RebalancePolicy,
    SpatialPartitioner,
    plan_rebalance_action,
)
from repro.geo import PORTO
from repro.obs import trace

from ..conftest import build_random_instance

EXECUTORS = ("serial", "process")


@pytest.fixture(scope="module")
def instance():
    return build_random_instance(task_count=60, driver_count=15, seed=37)


def merged_fingerprint(result):
    """Everything that must be identical whichever pool ran the solve."""
    return (
        result.solution.assignment(),
        tuple((p.driver_id, p.task_indices, p.profit) for p in result.solution.plans),
        result.report.total_value,
        result.report.served_count,
        result.report.per_shard_values,
        result.report.per_shard_task_counts,
    )


class TestSharedPool:
    @pytest.mark.parametrize("solver", ["greedy", "nearest", "maxMargin"])
    def test_every_solver_survives_the_pool(self, instance, solver):
        partitioner = SpatialPartitioner(PORTO, 2, 2)
        serial = DistributedCoordinator(partitioner, solver).solve(instance)
        with PersistentWorkerPool(executor="process", worker_count=2) as pool:
            pooled = DistributedCoordinator(partitioner, solver).solve(
                instance, pool=pool
            )
        assert merged_fingerprint(pooled) == merged_fingerprint(serial)

    def test_degenerate_shards_never_reach_the_pool(self, instance):
        """An 8x8 grid leaves most cells degenerate; the pool must only see
        the live shards and the merge must still count every shard."""
        partitioner = SpatialPartitioner(PORTO, 8, 8)
        serial = DistributedCoordinator(partitioner, "greedy").solve(instance)
        submitted = []

        class CountingPool(PersistentWorkerPool):
            def submit(self, slot, fn, /, *args):
                submitted.append(slot)
                return super().submit(slot, fn, *args)

        with CountingPool(executor="serial") as pool:
            pooled = DistributedCoordinator(partitioner, "greedy").solve(
                instance, pool=pool
            )
        live = 64 - serial.report.empty_shard_count
        assert live < 64
        assert len(submitted) == live
        assert merged_fingerprint(pooled) == merged_fingerprint(serial)
        assert pooled.report.shard_count == 64

    def test_report_reflects_the_pool(self, instance):
        with PersistentWorkerPool(executor="process", worker_count=3) as pool:
            result = DistributedCoordinator(
                SpatialPartitioner(PORTO, 2, 2), "greedy", executor="serial"
            ).solve(instance, pool=pool)
        assert result.report.executor == "process"
        assert result.report.worker_count <= 3

    def test_traced_root_span_names_the_pool(self, instance):
        """A serial coordinator solving on a process pool: the root span
        names the executor and transport that ran, as the report does."""
        recorder = trace.enable_tracing()
        try:
            with PersistentWorkerPool(executor="process", worker_count=1) as pool:
                report = DistributedCoordinator(
                    SpatialPartitioner(PORTO, 2, 2), "greedy", executor="serial"
                ).solve(instance, pool=pool).report
        finally:
            trace.disable_tracing()
        (root,) = [span for span in recorder.export() if span[2] == "solve"]
        attrs = dict(root[5])
        assert attrs["executor"] == report.executor == "process"
        assert attrs["transport"] == report.transport

    def test_open_stream_logs_the_pool_it_opens_on(self, instance, caplog):
        coordinator = DistributedCoordinator(
            SpatialPartitioner(PORTO, 2, 2), executor="serial"
        )
        with PersistentWorkerPool(executor="process", worker_count=1) as pool:
            with caplog.at_level(logging.DEBUG, logger="repro.distributed.coordinator"):
                with coordinator.open_stream(instance.drivers, pool=pool):
                    pass
        (line,) = [m for m in caplog.messages if m.startswith("opening stream")]
        assert "executor=process" in line


class TestPoolReuse:
    def test_consecutive_solves_share_one_warm_pool(self, instance):
        """The amortisation path: the slot executors survive across calls."""
        partitioner = SpatialPartitioner(PORTO, 2, 2)
        with PersistentWorkerPool(executor="process", worker_count=2) as pool:
            coordinator = DistributedCoordinator(partitioner, "greedy")
            first = coordinator.solve(instance, pool=pool)
            slots_after_first = list(pool._slots)
            second = coordinator.solve(instance, pool=pool)
            assert pool._slots == slots_after_first  # no refork between calls
        assert merged_fingerprint(first) == merged_fingerprint(second)

    def test_stream_pool_stays_warm_across_offline_solves(self, instance):
        with DistributedCoordinator(
            SpatialPartitioner(PORTO, 2, 2), "greedy", executor="process", max_workers=2
        ) as coordinator:
            first = coordinator.solve(instance, pool=coordinator.stream_pool())
            pool = coordinator._stream_pool
            assert pool is not None
            second = coordinator.solve(instance, pool=coordinator.stream_pool())
            assert coordinator._stream_pool is pool
        assert merged_fingerprint(first) == merged_fingerprint(second)

    def test_offline_and_stream_share_one_pool(self, instance):
        """Offline solves and live streams interleave on the same slots."""
        partitioner = SpatialPartitioner(PORTO, 2, 2)
        with PersistentWorkerPool(executor="process", worker_count=2) as pool:
            coordinator = DistributedCoordinator(partitioner, "greedy")
            offline_a = coordinator.solve(instance, pool=pool)
            streamed = coordinator.solve_stream(instance, pool=pool)
            offline_b = coordinator.solve(instance, pool=pool)
        assert merged_fingerprint(offline_a) == merged_fingerprint(offline_b)
        assert streamed.report.shard_count == 4

    def test_closed_pool_is_rejected(self, instance):
        pool = PersistentWorkerPool(executor="serial")
        pool.close()
        with pytest.raises(RuntimeError):
            DistributedCoordinator(SpatialPartitioner(PORTO, 2, 2), "greedy").solve(
                instance, pool=pool
            )


GROUPS = tuple((box,) for box in PORTO.split(1, 4))


class TestRebalanceActionRule:
    def test_hot_shard_splits(self):
        policy = RebalancePolicy(hot_factor=2.0, min_split_tasks=4)
        removed, added = plan_rebalance_action((1, 20, 1, 2), GROUPS, policy)
        assert removed == (1,)
        first, second = added
        # The hot box's two halves, which together cover exactly that box.
        assert len(first) == len(second) == 1
        assert first[0].area_km2() + second[0].area_km2() == pytest.approx(
            GROUPS[1][0].area_km2()
        )

    def test_cold_pair_merges_coldest_first(self):
        policy = RebalancePolicy(hot_factor=100.0, cold_factor=0.5, min_split_tasks=10**6)
        action = plan_rebalance_action((10, 1, 10, 0), GROUPS, policy)
        assert action is not None
        removed, added = action
        assert removed == (1, 3)  # retired positions ascend
        # Boxes pool coldest first, not in position order.
        assert added == [GROUPS[3] + GROUPS[1]]

    def test_quiet_when_balanced(self):
        policy = RebalancePolicy()
        assert plan_rebalance_action((5, 5, 5, 5), GROUPS, policy) is None
        assert plan_rebalance_action((), (), policy) is None
        assert plan_rebalance_action((0, 0), GROUPS[:2], policy) is None

    def test_max_shards_caps_splitting(self):
        policy = RebalancePolicy(hot_factor=1.5, min_split_tasks=1, max_shards=2)
        assert plan_rebalance_action((100, 1), GROUPS[:2], policy) is None

    @pytest.mark.parametrize(
        "knobs",
        [
            {"max_shards": 0},
            {"max_shards": -3},
            {"min_split_tasks": -5},
            {"hot_factor": math.inf},
            {"hot_factor": math.nan},
            {"cold_factor": math.inf},
            {"cold_factor": math.nan},
        ],
        ids=lambda knobs: "-".join(f"{k}={v}" for k, v in knobs.items()),
    )
    def test_policy_rejects_knobs_the_rule_cannot_honour(self, knobs):
        with pytest.raises(ValueError):
            RebalancePolicy(**knobs)
