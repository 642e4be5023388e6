"""Tests for the distributed coordinator and shard workers."""

import dataclasses
import importlib

import pytest

from repro.distributed import (
    DistributedCoordinator,
    DistributedResult,
    FanOutReport,
    PersistentWorkerPool,
    ShardResult,
    ShardWorkRequest,
    SpatialPartitioner,
    solve_shard,
)
from repro.geo import PORTO
from repro.offline import greedy_assignment
from repro.online import MaxMarginDispatcher, NearestDispatcher, OnlineSimulator

from ..conftest import build_random_instance


@pytest.fixture(scope="module")
def instance():
    return build_random_instance(task_count=60, driver_count=15, seed=37)


def shard_call(shard):
    """``solve_shard``'s arguments before the request, as a serial slot
    receives them: the shard's ``(shard_id, tasks)``, drivers, cost model."""
    sub = shard.instance
    return (shard.spec.shard_id, sub.tasks), sub.drivers, sub.cost_model


class TestSolveShard:
    def test_unknown_solver_rejected(self, instance):
        plan = SpatialPartitioner(PORTO, 1, 1).partition(instance)
        request = ShardWorkRequest(0, 1, 1, solver_name="simplex")
        with pytest.raises(ValueError):
            solve_shard(*shard_call(plan.shards[0]), request)

    @pytest.mark.parametrize("solver", ["greedy", "nearest", "maxMargin"])
    def test_shard_result_consistency(self, instance, solver):
        plan = SpatialPartitioner(PORTO, 2, 2).partition(instance)
        shard = max(plan.shards, key=lambda s: s.task_count)
        request = ShardWorkRequest(shard.spec.shard_id, shard.driver_count, shard.task_count, solver)
        result = solve_shard(*shard_call(shard), request)
        # One plan per shard driver, in shard fleet order.
        assert [p.driver_id for p in result.plans] == [d.driver_id for d in shard.instance.drivers]
        served = [m for p in result.plans for m in p.task_indices]
        assert result.served_count == len(served) == len(set(served)) > 0
        assert result.total_value == sum(p.profit for p in result.plans)
        assert result.elapsed_s >= 0.0

    def test_empty_shard(self, instance):
        plan = SpatialPartitioner(PORTO, 8, 8).partition(instance)
        empty = next(s for s in plan.shards if s.task_count == 0 or s.driver_count == 0)
        request = ShardWorkRequest(empty.spec.shard_id, empty.driver_count, empty.task_count, "greedy")
        result = solve_shard(*shard_call(empty), request)
        assert result.plans == ()
        assert result.total_value == 0.0
        assert result.served_count == 0


class TestCoordinator:
    def test_invalid_solver_name(self):
        with pytest.raises(ValueError):
            DistributedCoordinator(SpatialPartitioner(PORTO, 1, 1), solver_name="cplex")

    def test_single_shard_matches_unsharded_greedy(self, instance):
        coordinator = DistributedCoordinator(SpatialPartitioner(PORTO, 1, 1), "greedy")
        result = coordinator.solve(instance)
        expected = greedy_assignment(instance)
        assert result.solution.total_value == pytest.approx(expected.total_value, rel=1e-9)
        assert result.report.shard_count == 1
        result.solution.validate()

    def test_sharded_solution_is_feasible_and_conflict_free(self, instance):
        coordinator = DistributedCoordinator(SpatialPartitioner(PORTO, 3, 3), "greedy")
        result = coordinator.solve(instance)
        result.solution.validate()
        assert result.report.shard_count == 9
        assert result.report.total_value == pytest.approx(result.solution.total_value)
        assert result.report.served_count == result.solution.served_count

    def test_greedy_merge_builds_no_whole_day_network(self):
        """The merge prices the shards' plans from their own legs: the
        whole-day instance never builds its task network or task maps."""
        day = build_random_instance(task_count=60, driver_count=15, seed=37)
        result = DistributedCoordinator(SpatialPartitioner(PORTO, 2, 2), solver_name="greedy").solve(day)
        result.solution.validate()
        assert result.solution.served_count > 0
        assert "task_network" not in day.__dict__
        assert "task_maps" not in day.__dict__

    def test_sharding_never_beats_global_greedy_by_much(self, instance):
        """Sharding removes cross-shard chains; it should not create value out
        of thin air (both solve the same objective with the same algorithm)."""
        global_value = greedy_assignment(instance).total_value
        sharded = DistributedCoordinator(SpatialPartitioner(PORTO, 3, 3), "greedy").solve(instance)
        assert sharded.solution.total_value <= global_value * 1.2 + 1e-6

    def test_parallel_mode_matches_sequential(self, instance):
        partitioner = SpatialPartitioner(PORTO, 2, 2)
        sequential = DistributedCoordinator(partitioner, "greedy", executor="serial").solve(instance)
        parallel = DistributedCoordinator(
            partitioner, "greedy", executor="process", max_workers=2
        ).solve(instance)
        assert parallel.solution.assignment() == sequential.solution.assignment()

    def test_online_solver_merging(self, instance):
        coordinator = DistributedCoordinator(SpatialPartitioner(PORTO, 2, 2), "maxMargin")
        result = coordinator.solve(instance)
        # Online shard plans carry simulator-computed profits.
        assert result.solution.total_value == pytest.approx(
            sum(r for r in result.report.per_shard_values), rel=1e-6
        )
        served = [m for plan in result.solution.plans for m in plan.task_indices]
        assert len(served) == len(set(served))

    def test_report_speedup_metric(self, instance):
        result = DistributedCoordinator(SpatialPartitioner(PORTO, 2, 2), "greedy").solve(instance)
        assert result.report.slowest_shard_s >= 0.0
        assert result.report.critical_path_speedup >= 1.0 or result.report.slowest_shard_s == 0.0


class TestOfflineRejections:
    """An online shard solver's rejections reach the merged solution, and so
    do the orders of a shard without drivers."""

    DISPATCHERS = {"maxMargin": MaxMarginDispatcher, "nearest": lambda: NearestDispatcher(seed=0)}

    @pytest.mark.parametrize("executor", ["serial", "process"])
    @pytest.mark.parametrize("solver", ["maxMargin", "nearest"])
    def test_one_shard_equals_the_unsharded_simulator(self, instance, solver, executor):
        unsharded = OnlineSimulator(instance, self.DISPATCHERS[solver]()).run()
        merged = DistributedCoordinator(
            SpatialPartitioner(PORTO, 1, 1), solver, executor=executor, max_workers=1
        ).solve(instance).solution
        assert merged.plans == unsharded.plans
        assert merged.rejected_tasks == unsharded.rejected_tasks
        assert len(merged.rejected_tasks) > 0

    @pytest.mark.parametrize("grid", [(2, 2), (3, 3)])
    @pytest.mark.parametrize("solver", ["maxMargin", "nearest"])
    def test_served_and_rejected_partition_the_publishable_orders(
        self, instance, solver, grid
    ):
        merged = DistributedCoordinator(SpatialPartitioner(PORTO, *grid), solver).solve(
            instance
        ).solution
        served = {m for p in merged.plans for m in p.task_indices}
        rejected = set(merged.rejected_tasks)
        assert served.isdisjoint(rejected)
        assert served | rejected == {
            m for m, task in enumerate(instance.tasks) if task.is_publishable
        }
        assert merged.summary()["rejected_tasks"] == len(rejected) > 0

    def test_a_driverless_shard_rejects_its_orders(self, instance):
        partitioner = SpatialPartitioner(PORTO, 3, 3)
        stranded = {
            g
            for shard in partitioner.partition(instance).shards
            if not shard.driver_count
            for g in shard.global_task_indices
            if instance.tasks[g].is_publishable
        }
        assert stranded
        merged = DistributedCoordinator(partitioner, "maxMargin").solve(instance).solution
        assert stranded <= set(merged.rejected_tasks)

    def test_repriced_merges_reject_nothing(self, instance):
        merged = DistributedCoordinator(SpatialPartitioner(PORTO, 2, 2), "greedy").solve(instance)
        assert merged.solution.rejected_tasks == ()


class TestOneShardProtocol:
    """An offline shard ships as one task delta beside its drivers and
    answers with the stream's result type: the offline record, its
    flattener and rebuilder, and the second result type are gone."""

    @pytest.mark.parametrize(
        "module, name",
        [
            (module, name)
            for module in (
                "repro.distributed",
                "repro.distributed.payload",
                "repro.distributed.pool",
                "repro.distributed.transport",
            )
            for name in ("ShardPayload", "payload_from_shard", "instance_from_payload")
        ]
        + [
            (module, name)
            for module in (
                "repro.distributed",
                "repro.distributed.messages",
                "repro.distributed.pool",
                "repro.distributed.coordinator",
                "repro.distributed.stream",
            )
            for name in ("ShardWorkResult", "ShardStreamResult")
        ],
    )
    def test_removed_names_are_gone(self, module, name):
        assert not hasattr(importlib.import_module(module), name)

    def test_one_shard_result_type(self, instance):
        assert [f.name for f in dataclasses.fields(ShardResult)] == [
            "plans", "rejected_tasks", "elapsed_s", "bounds", "wait_total_s", "spans"
        ]
        shard = SpatialPartitioner(PORTO, 1, 1).partition(instance).shards[0]
        request = ShardWorkRequest(0, shard.driver_count, shard.task_count, "maxMargin")
        assert type(solve_shard(*shard_call(shard), request)) is ShardResult


class TestOneFanOutResult:
    """An offline solve and a stream answer with one result type carrying
    one report, built from the same shard results."""

    @pytest.mark.parametrize(
        "module, name",
        [
            (module, name)
            for module in (
                "repro.distributed",
                "repro.distributed.messages",
                "repro.distributed.coordinator",
                "repro.distributed.stream",
            )
            for name in ("StreamReport", "CoordinatorReport", "DistributedStreamResult")
        ],
    )
    def test_removed_names_are_gone(self, module, name):
        assert not hasattr(importlib.import_module(module), name)

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_offline_report_counts_rejections_and_waits(self, instance, executor):
        result = DistributedCoordinator(
            SpatialPartitioner(PORTO, 2, 2), solver_name="maxMargin",
            executor=executor, max_workers=2,
        ).solve(instance)
        report, solution = result.report, result.solution
        assert type(result) is DistributedResult and type(report) is FanOutReport
        assert result.rejected_tasks == solution.rejected_tasks
        assert report.rejected_count == len(solution.rejected_tasks) > 0
        assert report.served_count + report.rejected_count == 60
        assert report.wait_total_s > 0
        assert report.wait_total_s == pytest.approx(solution.total_wait_s, rel=1e-12)
        assert solution.mean_wait_s > 0.0
        # One mean wait: the solution's, over the tracked arrivals.
        assert not hasattr(FanOutReport, "mean_wait_s")
        assert result.regions == SpatialPartitioner(PORTO, 2, 2).box_groups

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_stream_report_per_shard_values(self, instance, executor):
        partitioner = SpatialPartitioner(PORTO, 3, 3)
        with DistributedCoordinator(
            partitioner, executor=executor, max_workers=2
        ) as coordinator:
            result = coordinator.solve_stream(instance)
        report = result.report
        assert type(result) is DistributedResult and type(report) is FanOutReport
        assert len(report.per_shard_values) == report.shard_count == 9
        assert sum(report.per_shard_values) == pytest.approx(report.total_value, rel=1e-12)
        driverless = [
            not shard.driver_count for shard in partitioner.partition(instance).shards
        ]
        assert report.empty_shard_count == sum(driverless) > 0

    def test_shard_skew_is_the_hottest_count_over_the_mean(self, instance):
        report = DistributedCoordinator(SpatialPartitioner(PORTO, 3, 3)).solve(instance).report
        counts = report.per_shard_task_counts
        assert report.shard_skew == max(counts) / (sum(counts) / len(counts)) > 1.0
        idle = dataclasses.replace(report, per_shard_task_counts=(0,) * len(counts))
        assert idle.shard_skew == 1.0

    def test_worker_count_is_the_slots_used(self, instance):
        """One shard on a 2-slot pool runs on one slot, offline and streamed."""
        coordinator = DistributedCoordinator(SpatialPartitioner(PORTO, 1, 1))
        with PersistentWorkerPool(executor="process", worker_count=2) as pool:
            streamed = coordinator.solve_stream(instance, pool=pool)
            solved = coordinator.solve(instance, pool=pool)
        assert streamed.report.worker_count == solved.report.worker_count == 1

    def test_report_has_no_subclass(self):
        assert FanOutReport.__subclasses__() == []
