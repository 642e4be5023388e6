"""Rolling-horizon dispatch benchmark: lookahead vs myopic, verified.

Pins the rolling-horizon acceptance criteria (parity contract 18) and
records the scenario-by-scenario comparison:

* **gate** — with the oracle forecaster (the compiled timeline replayed as
  the forecast, the upper envelope of what a live forecaster can know),
  rolling-horizon dispatch must improve **both** serve rate and mean wait
  over the myopic dispatcher on at least 4 of the 6 built-in scenarios;
* **degradation** — ``horizon=1`` is bit-identical to the myopic
  dispatcher (the lookahead machinery adds exactly nothing at horizon 1);
* **executor parity** — horizon dispatch over the streamed path is
  bit-identical across the serial / process pool policies and the
  provided-pool vs own-pool paths (smoke);
* **metrics** — per-scenario myopic/horizon serve rate + mean wait deltas
  land in ``benchmarks/results/BENCH_rolling_horizon.json``.

The full run replays each compiled scenario offline (``BatchedSimulator``)
because the oracle forecaster reads the compiled task table — exactly the
"scenario-compiled timelines provide an oracle variant for testing" split:
live streams get EWMA (see the suite's ``stream-horizon`` rows in
``bench_scenarios``), the bench gate gets the oracle.

The ``smoke`` test at the bottom is the CI gate: one scenario at a reduced
scale, horizon streaming through 2-worker pools, the parity assertions,
``BENCH_rolling_horizon_smoke.json``.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.distributed import DistributedCoordinator, PersistentWorkerPool, SpatialPartitioner
from repro.online import BatchedSimulator
from repro.online.batch import BatchConfig
from repro.scenarios import compile_scenario, get_scenario, scenario_names

FULL_TRIPS, FULL_DRIVERS = 400, 48
SMOKE_TRIPS, SMOKE_DRIVERS = 200, 24

#: Tuned rolling-horizon configuration (see docs/benchmarks.md): a
#: 16-window control horizon plus 4 coarse overlap blocks of 4 windows.
HORIZON, OVERLAP = 16, 4

GRID_ROWS, GRID_COLS = 2, 2
POOL_WORKERS = 2

#: Scenarios the gate must win on (out of the 6 built-ins).
GATE_WINS = 4


def _outcome_fingerprint(solution) -> tuple:
    return (
        tuple((p.driver_id, p.task_indices, p.profit) for p in solution.plans),
        solution.total_value,
        solution.total_wait_s,
    )


def _solution_fingerprint(solution) -> tuple:
    return (
        solution.assignment(),
        tuple((p.driver_id, p.task_indices, p.profit) for p in solution.plans),
        solution.total_value,
    )


def _compare_one(spec) -> dict:
    """Replay one compiled scenario myopically and with oracle lookahead."""
    compiled = compile_scenario(spec)
    instance = compiled.instance
    myopic_cfg = BatchConfig(window_s=spec.window_s)
    horizon_cfg = BatchConfig(
        window_s=spec.window_s, horizon=HORIZON, overlap=OVERLAP, forecast="oracle"
    )
    start = time.perf_counter()
    myopic = BatchedSimulator(instance, myopic_cfg).run()
    myopic_wall = time.perf_counter() - start
    start = time.perf_counter()
    horizon = BatchedSimulator(instance, horizon_cfg).run()
    horizon_wall = time.perf_counter() - start
    # horizon=1 must reproduce the myopic run bit for bit.
    degraded = BatchedSimulator(
        instance, BatchConfig(window_s=spec.window_s, horizon=1)
    ).run()
    return {
        "task_count": instance.task_count,
        "driver_count": instance.driver_count,
        "myopic": {
            "serve_rate": myopic.serve_rate,
            "mean_wait_s": myopic.mean_wait_s,
            "total_revenue": myopic.total_revenue,
            "wall_clock_s": myopic_wall,
        },
        "horizon": {
            "serve_rate": horizon.serve_rate,
            "mean_wait_s": horizon.mean_wait_s,
            "total_revenue": horizon.total_revenue,
            "wall_clock_s": horizon_wall,
        },
        "serve_rate_delta": horizon.serve_rate - myopic.serve_rate,
        "mean_wait_delta_s": horizon.mean_wait_s - myopic.mean_wait_s,
        "improved_both": (
            horizon.serve_rate > myopic.serve_rate
            and horizon.mean_wait_s < myopic.mean_wait_s
        ),
        "horizon1_equals_myopic": (
            _outcome_fingerprint(degraded) == _outcome_fingerprint(myopic)
        ),
    }


@pytest.mark.benchmark(group="rolling-horizon")
def test_rolling_horizon_full(save_json):
    """Oracle lookahead beats myopic on >= 4 of 6 scenarios, both metrics."""
    names = scenario_names()
    start = time.perf_counter()
    comparison = {
        name: _compare_one(get_scenario(name).with_scale(FULL_TRIPS, FULL_DRIVERS))
        for name in names
    }
    wins = sum(record["improved_both"] for record in comparison.values())
    payload = {
        "scenario_count": len(names),
        "scenarios": names,
        "horizon": HORIZON,
        "overlap": OVERLAP,
        "forecast": "oracle",
        "improved_both_count": wins,
        "comparison": comparison,
        "wall_clock_s": time.perf_counter() - start,
        "cpu_count": os.cpu_count(),
    }
    save_json("rolling_horizon", payload)
    for name, record in comparison.items():
        assert record["horizon1_equals_myopic"], f"{name}: horizon=1 != myopic"
    assert wins >= GATE_WINS, (
        f"rolling horizon improved both serve rate and mean wait on only "
        f"{wins}/{len(names)} scenarios (need {GATE_WINS}): "
        f"{ {n: r['improved_both'] for n, r in comparison.items()} }"
    )


@pytest.mark.benchmark(group="rolling-horizon")
def test_rolling_horizon_smoke(save_json):
    """CI gate: horizon streaming parity on 2-worker pools, one scenario."""
    spec = get_scenario("stadium-event").with_scale(SMOKE_TRIPS, SMOKE_DRIVERS)
    compiled = compile_scenario(spec)
    instance = compiled.instance
    batches = compiled.arrival_batches()
    partitioner = SpatialPartitioner(spec.region, GRID_ROWS, GRID_COLS)
    # Live streams forecast with EWMA (the oracle would need the future).
    horizon_cfg = BatchConfig(window_s=spec.window_s, horizon=HORIZON, overlap=OVERLAP)
    myopic_cfg = BatchConfig(window_s=spec.window_s)

    start = time.perf_counter()
    prints = {}
    waits = {}
    pools = {}
    try:
        for executor in ("serial", "process"):
            pools[executor] = PersistentWorkerPool(
                executor=executor, worker_count=POOL_WORKERS
            )
        for executor, pool in pools.items():
            coordinator = DistributedCoordinator(partitioner, executor=executor)
            result = coordinator.solve_stream(
                instance, batches, config=horizon_cfg, pool=pool
            )
            prints[executor] = _solution_fingerprint(result.solution)
            waits[executor] = result.solution.mean_wait_s
        # Own-pool path (workers forked by the coordinator) must agree too.
        own = DistributedCoordinator(
            partitioner, executor="process"
        ).solve_stream(instance, batches, config=horizon_cfg)
        prints["own-pool"] = _solution_fingerprint(own.solution)
        # Myopic baseline and horizon=1 degradation on the warm serial pool.
        coordinator = DistributedCoordinator(partitioner, executor="serial")
        myopic = coordinator.solve_stream(
            instance, batches, config=myopic_cfg, pool=pools["serial"]
        )
        degraded = coordinator.solve_stream(
            instance,
            batches,
            config=BatchConfig(window_s=spec.window_s, horizon=1),
            pool=pools["serial"],
        )
    finally:
        for pool in pools.values():
            pool.close()

    parity = all(p == prints["serial"] for p in prints.values())
    degradation = _solution_fingerprint(degraded.solution) == _solution_fingerprint(
        myopic.solution
    )
    payload = {
        "scenario": spec.name,
        "task_count": instance.task_count,
        "driver_count": instance.driver_count,
        "worker_count": POOL_WORKERS,
        "grid": f"{GRID_ROWS}x{GRID_COLS}",
        "horizon": HORIZON,
        "overlap": OVERLAP,
        "forecast": "ewma",
        "executor_parity": parity,
        "horizon1_equals_myopic": degradation,
        "myopic": {
            "serve_rate": myopic.solution.serve_rate,
            "mean_wait_s": myopic.solution.mean_wait_s,
        },
        "horizon_stream": {
            "serve_rate": own.solution.serve_rate,
            "mean_wait_s": waits["serial"],
        },
        "wall_clock_s": time.perf_counter() - start,
        "cpu_count": os.cpu_count(),
    }
    save_json("rolling_horizon_smoke", payload)
    assert parity, f"horizon stream fingerprints diverge: { {k: hash(v) for k, v in prints.items()} }"
    assert degradation, "horizon=1 stream != myopic stream"
    assert all(w == waits["serial"] for w in waits.values())
