"""Executor-policy parity for the distributed coordinator.

The coordinator promises that the merged solution is *bit-identical* across
its serial and process-pool fan-outs — same assignments, same profits —
because either executor consumes the same per-shard requests
(including the deterministic per-shard seeds) and the merge consumes results
in shard order.  These tests pin that promise, including the degenerate
cases: a single shard, shards holding only drivers, and fully empty shards
that must be short-circuited without ever reaching a worker.
"""

import pytest

from repro.distributed import DistributedCoordinator, SpatialPartitioner
from repro.distributed import coordinator as coordinator_module
from repro.distributed import pool as pool_module
from repro.geo import PORTO

from ..conftest import build_random_instance

EXECUTORS = ("serial", "process")


@pytest.fixture(scope="module")
def instance():
    return build_random_instance(task_count=60, driver_count=15, seed=37)


def merged_fingerprint(result):
    """Everything that must be identical across executors."""
    return (
        result.solution.assignment(),
        tuple((p.driver_id, p.task_indices, p.profit) for p in result.solution.plans),
        result.report.total_value,
        result.report.served_count,
        result.report.per_shard_values,
    )


class TestExecutorParity:
    @pytest.mark.parametrize("solver", ["greedy", "nearest", "maxMargin"])
    def test_all_executors_merge_identically(self, instance, solver):
        partitioner = SpatialPartitioner(PORTO, 2, 2)
        results = {
            executor: DistributedCoordinator(
                partitioner, solver, executor=executor, max_workers=2
            ).solve(instance)
            for executor in EXECUTORS
        }
        serial = merged_fingerprint(results["serial"])
        assert merged_fingerprint(results["process"]) == serial

    def test_single_shard_parity(self, instance):
        partitioner = SpatialPartitioner(PORTO, 1, 1)
        serial = DistributedCoordinator(partitioner, "greedy").solve(instance)
        process = DistributedCoordinator(
            partitioner, "greedy", executor="process", max_workers=2
        ).solve(instance)
        assert merged_fingerprint(process) == merged_fingerprint(serial)
        assert serial.report.shard_count == 1

    def test_drivers_only_and_empty_shards(self, instance):
        # An 8x8 grid over a 60-task instance leaves many cells without tasks
        # and some with drivers but no tasks.
        partitioner = SpatialPartitioner(PORTO, 8, 8)
        plan = partitioner.partition(instance)
        assert any(s.driver_count > 0 and s.task_count == 0 for s in plan.shards)
        serial = DistributedCoordinator(partitioner, "greedy").solve(instance)
        process = DistributedCoordinator(
            partitioner, "greedy", executor="process", max_workers=2
        ).solve(instance)
        assert merged_fingerprint(process) == merged_fingerprint(serial)
        serial.solution.validate()

    def test_per_shard_seeds_are_deterministic_and_executor_independent(self, instance):
        # The "nearest" solver breaks ties randomly from the request seed.
        partitioner = SpatialPartitioner(PORTO, 3, 3)
        a = DistributedCoordinator(partitioner, "nearest", base_seed=11).solve(instance)
        b = DistributedCoordinator(partitioner, "nearest", base_seed=11).solve(instance)
        pooled = DistributedCoordinator(
            partitioner, "nearest", base_seed=11, executor="process", max_workers=3
        ).solve(instance)
        assert merged_fingerprint(a) == merged_fingerprint(b) == merged_fingerprint(pooled)


class TestEmptyShardShortCircuit:
    def test_no_worker_sees_a_degenerate_shard(self, instance, monkeypatch):
        partitioner = SpatialPartitioner(PORTO, 8, 8)
        plan = partitioner.partition(instance)
        live = sum(1 for s in plan.shards if s.task_count and s.driver_count)
        assert live < plan.shard_count  # the grid really has degenerate shards

        seen = []
        original = coordinator_module.solve_shard

        def counting(shipment, drivers, cost_model, request):
            seen.append(request.shard_id)
            return original(shipment, drivers, cost_model, request)

        # Scoped: the process policy below pickles ``solve_shard`` by name.
        with monkeypatch.context() as patch:
            patch.setattr(coordinator_module, "solve_shard", counting)
            result = DistributedCoordinator(partitioner, "greedy").solve(instance)
        assert len(seen) == live
        # ... and no record is built for them on the process path either.
        built = []
        original_delta = pool_module.delta_from_tasks

        def counting_delta(shard_id, tasks):
            built.append(shard_id)
            return original_delta(shard_id, tasks)

        monkeypatch.setattr(pool_module, "delta_from_tasks", counting_delta)
        DistributedCoordinator(partitioner, "greedy", executor="process", max_workers=2).solve(
            instance
        )
        assert len(built) == live
        # Merged reports still count every shard.
        assert result.report.shard_count == plan.shard_count
        assert len(result.report.per_shard_values) == plan.shard_count
        assert len(result.report.per_shard_durations) == plan.shard_count
        assert result.report.empty_shard_count == plan.shard_count - live

    def test_report_metadata(self, instance):
        result = DistributedCoordinator(
            SpatialPartitioner(PORTO, 2, 2), "greedy", executor="process", max_workers=2
        ).solve(instance)
        assert result.report.executor == "process"
        assert result.report.worker_count == 2


class TestConfiguration:
    def test_unknown_executor_rejected(self):
        with pytest.raises(ValueError):
            DistributedCoordinator(SpatialPartitioner(PORTO, 1, 1), executor="mpi")

    def test_thread_policy_is_rejected(self, capsys):
        """The retired policy is refused everywhere an executor is named,
        and the refusal lists the two survivors."""
        from repro.cli import main
        from repro.distributed import PersistentWorkerPool

        for build in (
            lambda: PersistentWorkerPool(executor="thread"),
            lambda: DistributedCoordinator(SpatialPartitioner(PORTO, 1, 1), executor="thread"),
        ):
            with pytest.raises(ValueError, match="'serial', 'process'"):
                build()
        with pytest.raises(SystemExit):
            main(["solve", "--market", "unused.json", "--stream", "--executor", "thread"])
        message = capsys.readouterr().err
        assert "invalid choice: 'thread'" in message
        assert "'serial'" in message and "'process'" in message

    def test_default_executor_is_serial(self):
        assert DistributedCoordinator(SpatialPartitioner(PORTO, 1, 1)).executor == "serial"
