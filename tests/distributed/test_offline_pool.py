"""Pooled offline solves and load-aware pre-splitting.

Two things land here:

* **Solves on a shared pool** — ``DistributedCoordinator.solve(pool=...)``
  dispatches its shard requests onto a warm pool the caller owns: every
  solver merges exactly as the serial solve does, degenerate shards are
  never submitted, the report describes the pool that ran, and consecutive
  solves and streams share the same slot executors.
* **LoadAwarePartitioner determinism** — the refined partition is a pure
  function of the prior load report and the policy: same report in, same
  shards out, and the split/merge decisions mirror the streaming
  rebalancer's rule (``plan_rebalance_action``).
"""

import pytest

from repro.distributed import (
    DistributedCoordinator,
    LoadAwarePartitioner,
    PersistentWorkerPool,
    RebalanceAction,
    RebalancePolicy,
    ShardLoadReport,
    SpatialPartitioner,
    hull_of_boxes,
    plan_rebalance_action,
)
from repro.geo import PORTO, BoundingBox

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


class TestRebalanceActionRule:
    def test_hot_shard_splits(self):
        policy = RebalancePolicy(hot_factor=2.0, min_split_tasks=4)
        action = plan_rebalance_action((1, 20, 1, 2), policy)
        assert action == RebalanceAction(kind="split", positions=(1,))

    def test_cold_pair_merges_coldest_first(self):
        policy = RebalancePolicy(hot_factor=100.0, cold_factor=0.5, min_split_tasks=10**6)
        action = plan_rebalance_action((10, 1, 10, 0), policy)
        assert action is not None
        assert action.kind == "merge"
        assert action.positions == (3, 1)  # coldest first, not position order

    def test_quiet_when_balanced(self):
        policy = RebalancePolicy()
        assert plan_rebalance_action((5, 5, 5, 5), policy) is None
        assert plan_rebalance_action((), policy) is None
        assert plan_rebalance_action((0, 0), policy) is None

    def test_max_shards_caps_splitting(self):
        policy = RebalancePolicy(hot_factor=1.5, min_split_tasks=1, max_shards=2)
        assert plan_rebalance_action((100, 1), policy) is None


class TestShardLoadReport:
    def test_from_offline_result(self, instance):
        result = DistributedCoordinator(
            SpatialPartitioner(PORTO, 3, 3), "greedy"
        ).solve(instance)
        report = ShardLoadReport.from_prior(result)
        assert len(report.regions) == 9
        assert report.task_counts == result.report.per_shard_task_counts
        assert sum(report.task_counts) == instance.task_count

    def test_from_stream_result(self, instance):
        with DistributedCoordinator(
            SpatialPartitioner(PORTO, 2, 2), executor="serial"
        ) as coordinator:
            streamed = coordinator.solve_stream(instance)
        report = ShardLoadReport.from_prior(streamed)
        assert report.regions == streamed.regions
        assert sum(report.task_counts) == instance.task_count

    def test_round_trips_itself(self):
        report = ShardLoadReport(regions=((PORTO,),), task_counts=(3,))
        assert ShardLoadReport.from_prior(report) is report

    def test_unknown_prior_rejected(self):
        with pytest.raises(TypeError):
            ShardLoadReport.from_prior(((PORTO,),))

    def test_misaligned_report_rejected(self):
        with pytest.raises(ValueError):
            ShardLoadReport(regions=((PORTO,),), task_counts=(1, 2))


class TestLoadAwarePartitioner:
    POLICY = RebalancePolicy(hot_factor=1.3, cold_factor=0.3, min_split_tasks=8)

    def test_deterministic_from_a_fixed_prior(self, instance):
        prior = DistributedCoordinator(
            SpatialPartitioner(PORTO, 3, 3), "greedy"
        ).solve(instance)
        a = LoadAwarePartitioner(PORTO, prior, policy=self.POLICY)
        b = LoadAwarePartitioner(PORTO, ShardLoadReport.from_prior(prior), policy=self.POLICY)
        assert a.box_groups == b.box_groups
        plan_a, plan_b = a.partition(instance), b.partition(instance)
        assert [s.global_task_indices for s in plan_a.shards] == [
            s.global_task_indices for s in plan_b.shards
        ]
        assert [s.global_driver_ids for s in plan_a.shards] == [
            s.global_driver_ids for s in plan_b.shards
        ]

    def test_pre_splitting_improves_balance(self, instance):
        """On skewed demand the refined partition must not be *less*
        balanced than the blind grid that produced the report."""
        prior = DistributedCoordinator(
            SpatialPartitioner(PORTO, 3, 3), "greedy"
        ).solve(instance)
        before = ShardLoadReport.from_prior(prior)
        refined = LoadAwarePartitioner(PORTO, prior, policy=self.POLICY)
        assert refined.shard_count != 9  # the skewed grid really triggered it
        after = ShardLoadReport.from_prior(refined.partition(instance))
        assert after.max_over_mean <= before.max_over_mean

    def test_partition_plan_is_exhaustive_and_disjoint(self, instance):
        prior = DistributedCoordinator(
            SpatialPartitioner(PORTO, 3, 3), "greedy"
        ).solve(instance)
        plan = LoadAwarePartitioner(PORTO, prior, policy=self.POLICY).partition(instance)
        seen = [g for shard in plan.shards for g in shard.global_task_indices]
        assert sorted(seen) == list(range(instance.task_count))
        driver_ids = [d for shard in plan.shards for d in shard.global_driver_ids]
        assert sorted(driver_ids) == sorted(d.driver_id for d in instance.drivers)

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_coordinator_solves_over_refined_shards(self, instance, executor):
        """The refined partition drops into solve()/merge like the grid, and
        stays executor-independent."""
        prior = DistributedCoordinator(
            SpatialPartitioner(PORTO, 3, 3), "greedy"
        ).solve(instance)
        partitioner = LoadAwarePartitioner(PORTO, prior, policy=self.POLICY)
        serial = DistributedCoordinator(partitioner, "greedy").solve(instance)
        other = DistributedCoordinator(
            partitioner, "greedy", executor=executor, max_workers=2
        ).solve(instance)
        assert merged_fingerprint(other) == merged_fingerprint(serial)
        serial.solution.validate()

    def test_streaming_router_uses_the_refined_regions(self, instance):
        prior = DistributedCoordinator(
            SpatialPartitioner(PORTO, 3, 3), "greedy"
        ).solve(instance)
        partitioner = LoadAwarePartitioner(PORTO, prior, policy=self.POLICY)
        with DistributedCoordinator(partitioner, executor="serial") as coordinator:
            streamed = coordinator.solve_stream(instance)
        assert streamed.report.shard_count == partitioner.shard_count
        assert streamed.regions == partitioner.box_groups

    def test_merged_shards_round_trip_their_exact_boxes(self, instance):
        """A merged multi-box shard must feed its *box group* — not its
        hull, which can overlap other shards — into the next report, so the
        solve -> report -> refine loop survives arbitrarily many cycles."""
        cells = PORTO.split(1, 3)
        # Cold outer columns around a hot middle: forces a non-adjacent merge
        # whose hull would swallow the middle shard's territory.
        report = ShardLoadReport(
            regions=((cells[0],), (cells[1],), (cells[2],)),
            task_counts=(1, 100, 1),
        )
        policy = RebalancePolicy(hot_factor=10.0, cold_factor=0.5, min_split_tasks=10**6)
        refined = LoadAwarePartitioner(PORTO, report, policy=policy, rounds=1)
        merged = [g for g in refined.box_groups if len(g) > 1]
        assert merged == [(cells[0], cells[2])]  # the non-adjacent cold pair

        plan = refined.partition(instance)
        round_tripped = ShardLoadReport.from_prior(plan)
        assert round_tripped.regions == refined.box_groups
        # The round trip must keep routing identical, not just regions.
        again = LoadAwarePartitioner(PORTO, round_tripped, rounds=0)
        plan_again = again.partition(instance)
        assert [s.global_task_indices for s in plan_again.shards] == [
            s.global_task_indices for s in plan.shards
        ]

    def test_zero_rounds_round_trips_the_report(self, instance):
        prior = DistributedCoordinator(
            SpatialPartitioner(PORTO, 2, 2), "greedy"
        ).solve(instance)
        partitioner = LoadAwarePartitioner(PORTO, prior, rounds=0)
        assert partitioner.box_groups == ShardLoadReport.from_prior(prior).regions


class TestHullOfBoxes:
    def test_hull_spans_every_box(self):
        boxes = PORTO.split(2, 2)
        assert hull_of_boxes(boxes) == PORTO
        assert hull_of_boxes([boxes[0]]) == boxes[0]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            hull_of_boxes([])
