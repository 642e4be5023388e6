"""City-scale transport benchmark — zero-copy shm vs pickle vs serial.

``bench_distributed_scaling.py`` showed the gap this PR closes: the process
fan-out's *critical path* beat serial 3-4x while its *wall clock* did not,
because every shard payload was pickled through the executor pipe.  This
benchmark measures the same city twice over the persistent pool — pickle
transport and shared-memory transport — against the serial reference, and
records the whole story in ``benchmarks/results/BENCH_city_scale.json``:

* ``bytes_over_pipe`` per transport, straight from the coordinator reports —
  the shm run must move **>= 10x** fewer bytes through the pipe than the
  pickle run on the identical workload (descriptors vs full array columns);
* ``speedup_vs_serial`` for the shm run — the honest wall-clock gate, which
  only applies where the cores exist (``cpu_count >= 4``; single-core CI
  boxes gate on ``critical_path_speedup`` instead, exactly like the scaling
  benchmark, because wall clock there measures the scheduler);
* bit-identical merges across all runs (parity contract 16) — asserted
  unconditionally, on any machine;
* a streaming section: the same instance streamed over both transports,
  pinning that a steady-state stream *recycles* segments (``segment_reuses``)
  instead of allocating per batch, with zero pickle fallbacks.

Scale is switchable via ``REPRO_CITY_SCALE``: ``bench`` (default, minutes on
a laptop), ``large`` (tens of thousands of orders), or ``full`` — the
ISSUE's headline city of ~100k drivers x ~1M orders, which needs a big
multicore box and a long lunch.  The ``smoke`` test at the bottom is the CI
transport gate (2 workers, small instance, shm==pickle parity), writing
``BENCH_city_scale_smoke.json``.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.distributed import DistributedCoordinator, SpatialPartitioner
from repro.experiments import ExperimentConfig, ExperimentScale, build_workload
from repro.online.batch import BatchConfig
from repro.trace import WorkingModel

#: Default city: big enough that per-shard solve time dominates pool startup
#: and payloads dwarf descriptors, small enough for a laptop run.
CITY_SCALES = {
    "bench": ExperimentScale(
        task_count=2400, driver_counts=(240,), trips_generated=12000
    ),
    "large": ExperimentScale(
        task_count=20_000, driver_counts=(2_000,), trips_generated=100_000
    ),
    # The ISSUE's headline city (~100k drivers x ~1M orders).  Generation
    # alone takes a while at this scale — run it deliberately, on real cores.
    "full": ExperimentScale(
        task_count=1_000_000, driver_counts=(100_000,), trips_generated=5_000_000
    ),
}

SMOKE_SCALE = ExperimentScale(
    task_count=800, driver_counts=(100,), trips_generated=4000
)

WINDOW_S = 600.0


def selected_city_scale() -> ExperimentScale:
    return CITY_SCALES[os.environ.get("REPRO_CITY_SCALE", "bench").lower()]


def _build_instance(scale: ExperimentScale):
    config = ExperimentConfig(scale=scale, working_model=WorkingModel.HITCHHIKING)
    workload = build_workload(config)
    return config, workload.instance_with_drivers(scale.driver_counts[-1])


def _fingerprint(result):
    return (
        result.solution.assignment(),
        tuple((p.driver_id, p.task_indices, p.profit) for p in result.solution.plans),
    )


def _stream_fingerprint(result):
    return _fingerprint(result) + (result.rejected_tasks,)


def _timed(fn, rounds: int = 1):
    """Best-of-N wall clock (damps noisy neighbors without hiding cost)."""
    best_s = float("inf")
    result = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = fn()
        best_s = min(best_s, time.perf_counter() - start)
    return result, best_s


def _transport_block(report, wall_s: float) -> dict:
    return {
        "transport": report.transport,
        "wall_s": wall_s,
        "bytes_over_pipe": report.bytes_over_pipe,
        "shm_bytes": report.shm_bytes,
        "segment_reuses": report.segment_reuses,
        "pickle_fallbacks": report.pickle_fallbacks,
    }


def _run_city(instance, partitioner, workers: int, rounds: int):
    """Offline + streaming over serial / pickle-pool / shm-pool; returns the
    JSON payload (parity already verified)."""
    serial = DistributedCoordinator(partitioner, "greedy", executor="serial")
    serial_result, serial_s = _timed(lambda: serial.solve(instance), rounds)
    serial_stream, serial_stream_s = _timed(
        lambda: serial.solve_stream(instance, config=BatchConfig(window_s=WINDOW_S)),
        rounds,
    )

    offline = {}
    streaming = {}
    pool_snapshots = {}
    for transport in ("pickle", "shm"):
        with DistributedCoordinator(
            partitioner, "greedy", executor="process",
            max_workers=workers, transport=transport,
        ) as coordinator:
            result, wall_s = _timed(
                lambda: coordinator.solve(instance, pool=coordinator.stream_pool()),
                rounds,
            )
            stream, stream_s = _timed(
                lambda: coordinator.solve_stream(
                    instance, config=BatchConfig(window_s=WINDOW_S)
                ),
                rounds,
            )
            pool_snapshots[transport] = coordinator.stream_pool().stats.snapshot()
        assert _fingerprint(result) == _fingerprint(serial_result), transport
        assert _stream_fingerprint(stream) == _stream_fingerprint(serial_stream), transport
        offline[transport] = _transport_block(result.report, wall_s)
        offline[transport]["critical_path_speedup"] = result.report.critical_path_speedup
        streaming[transport] = _transport_block(stream.report, stream_s)

    pipe_ratio = (
        offline["pickle"]["bytes_over_pipe"] / offline["shm"]["bytes_over_pipe"]
        if offline["shm"]["bytes_over_pipe"]
        else float("inf")
    )
    # shard_bytes keys are shard ids (ints) — stringify for JSON.
    for snapshot in pool_snapshots.values():
        snapshot["shard_bytes"] = {
            str(k): v for k, v in snapshot["shard_bytes"].items()
        }
    return {
        "task_count": instance.task_count,
        "driver_count": instance.driver_count,
        "worker_count": workers,
        "cpu_count": os.cpu_count(),
        "wall_serial_s": serial_s,
        "wall_serial_stream_s": serial_stream_s,
        "offline": offline,
        "streaming": streaming,
        "speedup_vs_serial": serial_s / offline["shm"]["wall_s"],
        "speedup_vs_serial_pickle": serial_s / offline["pickle"]["wall_s"],
        "stream_speedup_vs_serial": serial_stream_s / streaming["shm"]["wall_s"],
        "critical_path_speedup": offline["shm"]["critical_path_speedup"],
        "bytes_over_pipe_ratio": pipe_ratio,
        "total_value": serial_result.solution.total_value,
        "served_count": serial_result.solution.served_count,
        "pool_stats": pool_snapshots,
        "solution_parity": True,  # asserted above, recorded for diffing
    }


@pytest.mark.benchmark(group="distributed")
def test_city_scale_transports(save_json):
    """The tentpole gate: shm moves >=10x fewer bytes over the pipe, merges
    stay bit-identical, and — where the cores exist — the pool finally beats
    serial wall clock."""
    config, instance = _build_instance(selected_city_scale())
    partitioner = SpatialPartitioner(config.bounding_box, 4, 2)
    payload = _run_city(instance, partitioner, workers=4, rounds=1)
    save_json("city_scale", payload)

    # The transport claim, unconditionally: descriptors vs array columns.
    assert payload["bytes_over_pipe_ratio"] >= 10.0
    assert payload["offline"]["shm"]["shm_bytes"] > 0
    assert payload["offline"]["shm"]["pickle_fallbacks"] == 0
    assert payload["streaming"]["shm"]["pickle_fallbacks"] == 0
    # Steady-state streams recycle segments instead of allocating per batch.
    assert payload["streaming"]["shm"]["segment_reuses"] > 0

    if (os.cpu_count() or 1) >= 4:
        # The honest multicore gate: zero-copy shipping + 4 workers must beat
        # the serial wall clock on the same machine.
        assert payload["speedup_vs_serial"] > 1.0
    else:
        # Single/dual-core boxes: wall clock measures the scheduler, so gate
        # on the fan-out's critical path (what the cores would buy).
        assert payload["critical_path_speedup"] > 1.0


@pytest.mark.benchmark(group="distributed")
def test_city_scale_smoke(save_json):
    """CI transport gate: 2 workers, small instance, shm == pickle == serial,
    >=10x fewer bytes over the pipe."""
    config, instance = _build_instance(SMOKE_SCALE)
    partitioner = SpatialPartitioner(config.bounding_box, 2, 2)
    payload = _run_city(instance, partitioner, workers=2, rounds=2)
    save_json("city_scale_smoke", payload)

    assert payload["bytes_over_pipe_ratio"] >= 10.0
    assert payload["offline"]["shm"]["pickle_fallbacks"] == 0
    if (os.cpu_count() or 1) >= 2:
        # With two real cores the shm fan-out must at least break even.
        assert payload["speedup_vs_serial"] >= 1.0
