"""Pool-aware shard placement (LPT) for offline solves.

Two halves: the :func:`lpt_slot_assignment` rule itself, and the
coordinator-level placement — ``solve`` packs its live shards onto the
pool's slots longest-processing-time-first over their own task counts, and
the merged solution does not depend on the pool's width (placement moves
work between slots, never changes it).
"""

import pytest

from repro.distributed import (
    DistributedCoordinator,
    PersistentWorkerPool,
    SpatialPartitioner,
    lpt_slot_assignment,
)
from repro.experiments import ExperimentConfig, ExperimentScale, build_workload
from repro.trace import WorkingModel

SCALE = ExperimentScale(task_count=120, driver_counts=(24,), trips_generated=600)


@pytest.fixture(scope="module")
def skewed_instance():
    config = ExperimentConfig(scale=SCALE, working_model=WorkingModel.HITCHHIKING)
    workload = build_workload(config)
    return config, workload.instance_with_drivers(24)


class TestLptRule:
    def test_known_example_packs_greedily(self):
        # Sorted desc: 10->slot0, 9->slot1, 2->slot1 (11? no: min is 9),
        # then alternating by least-loaded slot.
        assert lpt_slot_assignment([10, 9, 2, 2, 2], 2) == [0, 1, 1, 0, 1]

    def test_equal_loads_tie_break_by_position_and_slot(self):
        assert lpt_slot_assignment([5, 5, 5, 5], 2) == [0, 1, 0, 1]

    def test_never_stacks_the_two_hottest_while_a_slot_is_free(self):
        assignment = lpt_slot_assignment([100, 90, 1, 1], 2)
        assert assignment[0] != assignment[1]

    def test_single_slot_and_empty_input(self):
        assert lpt_slot_assignment([3, 1, 2], 1) == [0, 0, 0]
        assert lpt_slot_assignment([], 4) == []

    def test_rejects_zero_slots(self):
        with pytest.raises(ValueError):
            lpt_slot_assignment([1.0], 0)

    def test_makespan_respects_the_list_scheduling_bound(self):
        loads = [13.0, 11.0, 7.0, 5.0, 3.0, 2.0, 2.0]
        slots = 3
        assignment = lpt_slot_assignment(loads, slots)
        slot_loads = [0.0] * slots
        for load, slot in zip(loads, assignment):
            slot_loads[slot] += load
        assert max(slot_loads) <= sum(loads) / slots + max(loads)


class TestCoordinatorPlacement:
    def _fingerprint(self, result):
        return (
            result.solution.assignment(),
            tuple((p.driver_id, p.task_indices, p.profit) for p in result.solution.plans),
            result.report.total_value,
            result.report.per_shard_values,
        )

    def test_placement_does_not_change_the_merge(self, skewed_instance):
        config, instance = skewed_instance
        partitioner = SpatialPartitioner(config.bounding_box, 3, 3)
        serial = DistributedCoordinator(partitioner, "greedy").solve(instance)
        coordinator = DistributedCoordinator(
            partitioner, "greedy", executor="process", max_workers=2
        )
        own = coordinator.solve(instance)
        with PersistentWorkerPool(executor="process", worker_count=2) as pool:
            shared = coordinator.solve(instance, pool=pool)
        assert self._fingerprint(own) == self._fingerprint(serial)
        assert self._fingerprint(shared) == self._fingerprint(serial)

    def test_lpt_slots_follow_the_live_task_counts(self, skewed_instance):
        config, instance = skewed_instance
        partitioner = SpatialPartitioner(config.bounding_box, 3, 3)
        coordinator = DistributedCoordinator(partitioner, "greedy", executor="serial")

        submitted = []
        with PersistentWorkerPool(executor="serial") as pool:
            original = pool.submit

            def recording_submit(slot, fn, /, *args):
                submitted.append(slot)
                return original(slot, fn, *args)

            pool.worker_count = 2  # route the placement math through 2 slots
            pool.submit = recording_submit
            coordinator.solve(instance, pool=pool)
            pool.worker_count = 1

        plan = partitioner.partition(instance)
        live = [
            position
            for position, shard in enumerate(plan.shards)
            if shard.task_count > 0 and shard.driver_count > 0
        ]
        expected = lpt_slot_assignment(
            [float(plan.shards[position].task_count) for position in live], 2
        )
        assert submitted == expected
        # A skewed city must actually diverge from round-robin placement.
        assert submitted != [position % 2 for position in range(len(live))]
