"""Micro-benchmarks of the core algorithmic kernels.

Not figures from the paper, but the operational numbers a user of the library
cares about: how long task-map construction, the greedy solve, the online
simulators and the LP bound take at the benchmark scale.  These use repeated
pytest-benchmark rounds (they are fast) so regressions are visible.

The ``TestVectorizedKernelSpeedup`` class additionally pins the payoff of the
vectorised geo/matching kernel: on a 1,000-driver x 1,000-task instance the
batched distance matrix and the vectorised candidate construction must beat
the scalar reference loops by at least 5x while producing identical results.
"""

import random
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import compute_upper_bound
from repro.geo import PORTO, HaversineEstimator
from repro.market import Driver, MarketInstance, Task, build_task_network
from repro.offline import greedy_assignment, lagrangian_bound
from repro.online import (
    CandidateKernel,
    DriverState,
    MaxMarginDispatcher,
    NearestDispatcher,
    OnlineSimulator,
)
from repro.online import candidates as candidates_module

# The scalar oracle is test code: import it from the repository root.
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from tests.candidate_oracle import (  # noqa: E402
    candidates_for_scalar,
    candidates_for_window_scalar,
)


@pytest.fixture(scope="module")
def instance(hitchhiking_workload):
    return hitchhiking_workload.instance_with_drivers(
        hitchhiking_workload.config.scale.driver_counts[-1]
    )


@pytest.mark.benchmark(group="micro")
def test_micro_task_network_construction(benchmark, instance):
    network = benchmark(build_task_network, instance.tasks, instance.cost_model)
    assert network.task_count == instance.task_count


@pytest.mark.benchmark(group="micro")
def test_micro_task_maps_construction(benchmark, instance):
    def build_maps():
        fresh = MarketInstance(
            drivers=instance.drivers, tasks=instance.tasks, cost_model=instance.cost_model
        )
        return fresh.task_maps

    maps = benchmark(build_maps)
    assert len(maps) == instance.driver_count


@pytest.mark.benchmark(group="micro")
def test_micro_greedy_solve(benchmark, instance):
    solution = benchmark(greedy_assignment, instance)
    assert solution.total_value > 0.0


@pytest.mark.benchmark(group="micro")
def test_micro_online_max_margin(benchmark, instance):
    outcome = benchmark(lambda: OnlineSimulator(instance, MaxMarginDispatcher()).run())
    assert outcome.served_count > 0


@pytest.mark.benchmark(group="micro")
def test_micro_online_nearest(benchmark, instance):
    outcome = benchmark(lambda: OnlineSimulator(instance, NearestDispatcher()).run())
    assert outcome.served_count > 0


@pytest.mark.benchmark(group="micro")
def test_micro_lagrangian_bound(benchmark, instance):
    result = benchmark.pedantic(
        lagrangian_bound, args=(instance,), kwargs={"iterations": 10}, rounds=3, iterations=1
    )
    assert result.upper_bound > 0.0


@pytest.mark.benchmark(group="micro")
def test_micro_lp_relaxation_bound(benchmark, instance):
    bound = benchmark.pedantic(compute_upper_bound, args=(instance,), rounds=1, iterations=1)
    assert bound > 0.0


# ----------------------------------------------------------------------
# scalar vs vectorised geo/matching kernel (the dispatch hot path)
# ----------------------------------------------------------------------
KERNEL_DRIVERS = 1000
KERNEL_TASKS = 1000


@pytest.fixture(scope="module")
def kernel_instance():
    """A 1,000-driver x 1,000-task synthetic Porto instance."""
    rng = random.Random(42)

    def point():
        return PORTO.sample_uniform(rng)

    tasks = []
    for m in range(KERNEL_TASKS):
        source, destination = point(), point()
        start = rng.uniform(0.0, 6.0) * 3600.0
        distance = max(0.3, source.haversine_km(destination))
        duration = distance / 30.0 * 3600.0
        tasks.append(
            Task(
                task_id=f"t{m}",
                publish_ts=start - 600.0,
                source=source,
                destination=destination,
                start_deadline_ts=start,
                end_deadline_ts=start + duration * 1.4 + 120.0,
                price=2.0 + distance,
                distance_km=distance,
            )
        )
    drivers = [
        Driver(
            driver_id=f"d{n}",
            source=point(),
            destination=point(),
            start_ts=rng.uniform(0.0, 3.0) * 3600.0,
            end_ts=rng.uniform(5.0, 10.0) * 3600.0,
        )
        for n in range(KERNEL_DRIVERS)
    ]
    instance = MarketInstance.create(drivers=drivers, tasks=tasks)
    instance.task_network  # prebuild outside the timed sections
    return instance


class TestVectorizedKernelSpeedup:
    def test_cross_km_speedup_over_scalar_loop(self, kernel_instance, save_table):
        """Full 1,000 x 1,000 distance matrix: one cross_km call vs the
        nested scalar loop.  Requires >= 5x and bit-level agreement."""
        estimator = HaversineEstimator()
        origins = [d.source for d in kernel_instance.drivers]
        destinations = [t.source for t in kernel_instance.tasks]

        start = time.perf_counter()
        vectorized = estimator.cross_km(origins, destinations)
        vectorized_s = time.perf_counter() - start

        start = time.perf_counter()
        scalar = np.empty((len(origins), len(destinations)))
        for i, origin in enumerate(origins):
            for j, destination in enumerate(destinations):
                scalar[i, j] = estimator.distance_km(origin, destination)
        scalar_s = time.perf_counter() - start

        np.testing.assert_allclose(vectorized, scalar, atol=1e-9, rtol=0.0)
        speedup = scalar_s / max(1e-9, vectorized_s)
        save_table(
            "micro_cross_km",
            "\n".join(
                [
                    f"pairs={len(origins) * len(destinations)}",
                    f"scalar_s={scalar_s:.3f}",
                    f"vectorized_s={vectorized_s:.4f}",
                    f"speedup={speedup:.1f}x",
                ]
            ),
        )
        assert speedup >= 5.0

    def test_candidate_construction_speedup(self, kernel_instance, save_table, monkeypatch):
        """Candidate-set construction over the full task stream, one task at
        a time as the per-order simulator asks it (a one-task window):
        vectorised kernel (with the grid index, and with it kept from
        engaging) vs the scalar oracle.  Requires >= 5x and identical
        candidate sets."""
        tasks = kernel_instance.tasks
        order = sorted(range(len(tasks)), key=lambda m: tasks[m].publish_ts)
        states = [DriverState.fresh(d) for d in kernel_instance.drivers]
        indexed = CandidateKernel(kernel_instance, states)
        with monkeypatch.context() as patch:
            patch.setattr(candidates_module, "_MIN_INDEX_FLEET", float("inf"))
            exhaustive = CandidateKernel(kernel_instance, states)
        assert indexed.uses_spatial_index
        assert not exhaustive.uses_spatial_index

        def sweep(fn):
            start = time.perf_counter()
            count = sum(len(fn(m, tasks[m], tasks[m].publish_ts)) for m in order)
            return count, time.perf_counter() - start

        scalar_count, scalar_s = sweep(
            lambda m, task, now_ts: candidates_for_scalar(indexed, m, task, now_ts)
        )
        def one_task_window(kernel):
            return lambda m, task, now_ts: kernel.candidates_for_window([m], now_ts).get(m, [])

        grid_count, grid_s = sweep(one_task_window(indexed))
        flat_count, flat_s = sweep(one_task_window(exhaustive))

        assert grid_count == scalar_count
        assert flat_count == scalar_count
        speedup_grid = scalar_s / max(1e-9, grid_s)
        speedup_flat = scalar_s / max(1e-9, flat_s)
        save_table(
            "micro_candidate_kernel",
            "\n".join(
                [
                    f"drivers={KERNEL_DRIVERS} tasks={KERNEL_TASKS}",
                    f"candidates={scalar_count}",
                    f"scalar_s={scalar_s:.2f}",
                    f"vectorized_s={flat_s:.3f} (speedup={speedup_flat:.1f}x)",
                    f"vectorized_grid_s={grid_s:.3f} (speedup={speedup_grid:.1f}x)",
                ]
            ),
        )
        assert speedup_grid >= 5.0
        assert speedup_flat >= 5.0

    def test_online_simulation_end_to_end_speedup(self, kernel_instance, save_table, monkeypatch):
        """Whole per-order simulations at 1,000 x 1,000: the kernel's query
        vs the scalar oracle substituted for it, identical outcomes required."""
        subset = kernel_instance.subset_tasks(300)

        start = time.perf_counter()
        fast = OnlineSimulator(subset, MaxMarginDispatcher()).run()
        fast_s = time.perf_counter() - start

        with monkeypatch.context() as patch:
            patch.setattr(CandidateKernel, "candidates_for_window", candidates_for_window_scalar)
            start = time.perf_counter()
            slow = OnlineSimulator(subset, MaxMarginDispatcher()).run()
            slow_s = time.perf_counter() - start

        assert [p.task_indices for p in fast.plans] == [
            p.task_indices for p in slow.plans
        ]
        save_table(
            "micro_online_simulation",
            "\n".join(
                [
                    f"drivers={KERNEL_DRIVERS} tasks=300",
                    f"scalar_s={slow_s:.2f}",
                    f"vectorized_s={fast_s:.3f}",
                    f"speedup={slow_s / max(1e-9, fast_s):.1f}x",
                ]
            ),
        )
        assert fast_s < slow_s
