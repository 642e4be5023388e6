"""Stream == offline parity, per built-in scenario, per executor policy.

The scenario engine adds no execution machinery — the compiled artifacts
are ordinary market inputs — so every existing parity contract must extend
to every scenario:

* a 1x1 streamed solve equals the plain ``BatchedSimulator`` replay of the
  completed task set (the whole solution: every plan with its arrival
  times, the rejected orders and the wait totals), under every pool policy;
* a sharded (2x2) streamed solve is bit-identical across serial / process
  pools;
* the offline ``solve()`` is bit-identical between a pool of its own and
  a shared warm pool.

One pool per policy is shared across all scenarios (module scope), which
is both the intended usage and what keeps the process-policy forks paid
once.
"""

import pytest

from repro.distributed import DistributedCoordinator, PersistentWorkerPool, SpatialPartitioner
from repro.online import BatchedSimulator
from repro.online.batch import BatchConfig
from repro.scenarios import compile_scenario, get_scenario, scenario_names

TRIPS, DRIVERS = 90, 12
EXECUTORS = ("serial", "process")


@pytest.fixture(scope="module")
def pools():
    created = {
        executor: PersistentWorkerPool(executor=executor, worker_count=2)
        for executor in EXECUTORS
    }
    yield created
    for pool in created.values():
        pool.close()


@pytest.fixture(scope="module")
def compiled_scenarios():
    return {
        name: compile_scenario(get_scenario(name).with_scale(TRIPS, DRIVERS))
        for name in scenario_names()
    }


def _fingerprint(solution):
    return (solution.plans, solution.rejected_tasks, solution.total_value)


@pytest.mark.parametrize("name", scenario_names())
def test_stream_equals_offline_replay_under_every_executor(
    name, pools, compiled_scenarios
):
    compiled = compiled_scenarios[name]
    spec = compiled.spec
    config = BatchConfig(window_s=spec.window_s)
    replay = BatchedSimulator(compiled.instance, config).run()
    batches = compiled.arrival_batches()
    for executor, pool in pools.items():
        coordinator = DistributedCoordinator(
            SpatialPartitioner(spec.region, 1, 1), executor=executor
        )
        result = coordinator.solve_stream(
            compiled.instance, batches, config=config, pool=pool
        )
        assert result.solution.plans == replay.plans, executor
        assert result.solution.rejected_tasks == replay.rejected_tasks, executor
        assert result.report.wait_total_s == replay.total_wait_s, executor
        assert result.solution.summary() == replay.summary(), executor


@pytest.mark.parametrize("name", scenario_names())
def test_sharded_stream_is_executor_independent(name, pools, compiled_scenarios):
    compiled = compiled_scenarios[name]
    spec = compiled.spec
    config = BatchConfig(window_s=spec.window_s)
    batches = compiled.arrival_batches()
    prints = []
    waits = []
    for executor, pool in pools.items():
        coordinator = DistributedCoordinator(
            SpatialPartitioner(spec.region, 2, 2), executor=executor
        )
        result = coordinator.solve_stream(
            compiled.instance, batches, config=config, pool=pool
        )
        prints.append(_fingerprint(result.solution))
        waits.append(result.report.wait_total_s)
    assert prints[0] == prints[1]
    assert waits[0] == waits[1]


@pytest.mark.parametrize("name", scenario_names())
def test_offline_solve_pool_equals_fork(name, pools, compiled_scenarios):
    compiled = compiled_scenarios[name]
    partitioner = SpatialPartitioner(compiled.spec.region, 2, 2)
    own = DistributedCoordinator(partitioner, "greedy").solve(compiled.instance)
    pooled = DistributedCoordinator(partitioner, "greedy", executor="process").solve(
        compiled.instance, pool=pools["process"]
    )
    assert _fingerprint(pooled.solution) == _fingerprint(own.solution)
