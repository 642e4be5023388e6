"""Scaling benchmark — process-pool shard fan-out vs the serial coordinator.

The paper's distributed story is that disjoint spatial shards can be solved
independently; PR 2's process executor is what actually buys wall-clock from
that independence.  This benchmark solves one city-scale instance twice —
serially and on a 4-worker process pool over an 8-shard (4x2) grid — and
asserts two things:

* **parity is unconditional**: the merged solutions are bit-identical
  (assignments *and* profits), on any machine;
* **speed scales with cores**: on a box with >= 4 usable cores the process
  pool must reach at least 2x the serial wall-clock.  On smaller boxes (CI
  containers are often 1-2 cores) a wall-clock assertion would measure the
  scheduler, not the code, so the gate falls back to the report's
  critical-path speedup — total worker time over the slowest shard, i.e. the
  speedup the fan-out achieves as soon as the cores exist.

Both runs are recorded in ``benchmarks/results/BENCH_distributed_scaling.json``
(wall times, speedup vs serial, shard/worker/core counts) so regressions are
diffable.  The ``smoke`` test at the bottom is the CI gate: a
2-worker fan-out on a small instance asserting parity and non-regression.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.distributed import DistributedCoordinator, SpatialPartitioner
from repro.experiments import ExperimentConfig, ExperimentScale, build_workload
from repro.trace import WorkingModel

#: City-scale instance for the scaling run: several times the paper's task
#: count so per-shard solve time dominates the process pool's startup cost
#: (with 600 tasks the whole serial solve is ~0.1 s and a wall-clock gate
#: would measure fork overhead, not the fan-out).
SCALING_SCALE = ExperimentScale(
    task_count=2400,
    driver_counts=(240,),
    trips_generated=12000,
)

#: Instance for the CI smoke fan-out: small enough to finish in seconds on a
#: tiny runner, big enough that the serial solve (~0.5 s) dominates the
#: 2-worker pool's startup cost, so "speedup >= 1" tests the fan-out rather
#: than the fork overhead.
SMOKE_SCALE = ExperimentScale(
    task_count=800,
    driver_counts=(100,),
    trips_generated=4000,
)


def _build_instance(scale: ExperimentScale):
    config = ExperimentConfig(scale=scale, working_model=WorkingModel.HITCHHIKING)
    workload = build_workload(config)
    return config, workload.instance_with_drivers(scale.driver_counts[-1])


def _timed_solve(coordinator, instance, rounds: int = 1):
    """Solve ``rounds`` times on the coordinator's own pool, then close it,
    and keep the best wall-clock — best-of-N damps noisy-neighbor effects on
    shared runners without hiding real cost.  The pool is created by the
    first solve and stays warm for the later rounds."""
    best_s = float("inf")
    result = None
    with coordinator:
        for _ in range(rounds):
            start = time.perf_counter()
            result = coordinator.solve(instance)
            best_s = min(best_s, time.perf_counter() - start)
    return result, best_s


def _fingerprint(result):
    return (
        result.solution.assignment(),
        tuple((p.driver_id, p.task_indices, p.profit) for p in result.solution.plans),
    )


def _record(save_json, name, serial_result, serial_s, pooled_result, pooled_s, workers):
    speedup = serial_s / pooled_s if pooled_s > 0 else float("inf")
    payload = {
        "wall_serial_s": serial_s,
        "wall_process_s": pooled_s,
        "speedup_vs_serial": speedup,
        "critical_path_speedup": pooled_result.report.critical_path_speedup,
        "shard_count": pooled_result.report.shard_count,
        "empty_shard_count": pooled_result.report.empty_shard_count,
        "worker_count": workers,
        "cpu_count": os.cpu_count(),
        "task_count": pooled_result.solution.instance.task_count,
        "driver_count": pooled_result.solution.instance.driver_count,
        "total_value": pooled_result.solution.total_value,
        "served_count": pooled_result.solution.served_count,
        "solution_parity": _fingerprint(serial_result) == _fingerprint(pooled_result),
    }
    save_json(name, payload)
    return payload


@pytest.mark.benchmark(group="distributed")
def test_process_pool_scaling(save_json):
    """8 shards, 4 process workers, city-scale instance."""
    config, instance = _build_instance(SCALING_SCALE)
    partitioner = SpatialPartitioner(config.bounding_box, 4, 2)
    workers = 4

    serial_result, serial_s = _timed_solve(
        DistributedCoordinator(partitioner, "greedy", executor="serial"), instance
    )
    pooled_result, pooled_s = _timed_solve(
        DistributedCoordinator(partitioner, "greedy", executor="process", max_workers=workers),
        instance,
    )
    payload = _record(
        save_json, "distributed_scaling", serial_result, serial_s, pooled_result, pooled_s, workers
    )

    # Bit-identical merge, unconditionally.
    assert payload["solution_parity"]
    assert pooled_result.report.shard_count == 8

    usable_cores = os.cpu_count() or 1
    if usable_cores >= 4:
        # The acceptance gate proper: >= 2x serial wall-clock with 4 workers.
        assert payload["speedup_vs_serial"] >= 2.0
    else:
        # Not enough cores to observe wall-clock scaling; gate on the
        # fan-out's critical path instead (what the pool achieves once the
        # cores exist): total worker time must be >= 2x the slowest shard.
        assert payload["critical_path_speedup"] >= 2.0


@pytest.mark.benchmark(group="distributed")
def test_process_fanout_smoke(save_json):
    """CI smoke gate: 2 workers, small instance, parity + non-regression."""
    config, instance = _build_instance(SMOKE_SCALE)
    partitioner = SpatialPartitioner(config.bounding_box, 2, 2)
    workers = 2

    serial_result, serial_s = _timed_solve(
        DistributedCoordinator(partitioner, "greedy", executor="serial"), instance, rounds=2
    )
    pooled_result, pooled_s = _timed_solve(
        DistributedCoordinator(partitioner, "greedy", executor="process", max_workers=workers),
        instance,
        rounds=2,
    )
    payload = _record(
        save_json, "distributed_smoke", serial_result, serial_s, pooled_result, pooled_s, workers
    )

    assert payload["solution_parity"]
    if (os.cpu_count() or 1) >= 2:
        # With two real cores the 2-worker fan-out must at least break even.
        assert payload["speedup_vs_serial"] >= 1.0
