"""Scenario engine benchmark: every built-in scenario, end to end, verified.

Pins the scenario-engine acceptance criteria and records the per-scenario
comparison the suite produces:

* **compile determinism** — compiling a spec twice yields byte-identical
  artifacts (``CompiledScenario.checksum``), per built-in scenario;
* **offline parity** — ``solve()`` of the compiled instance is bit-identical
  across the serial / process policies on warm pools, per
  scenario;
* **stream parity** — ``solve_stream()`` over the compiled arrival batches
  is bit-identical across the same two pool policies, and equal to the
  offline ``BatchedSimulator.run`` replay of the full task set (the
  stream == offline contract extended to every scenario);
* **metrics** — the scenario-suite rows (serve rate, revenue, mean wait,
  shard-load skew per scenario x mode, including the ``stream-horizon``
  rolling-horizon comparison rows) land in
  ``benchmarks/results/BENCH_scenarios.json``.

The ``smoke`` test at the bottom is the CI gate: one built-in scenario at a
reduced scale through a 2-worker pool, the same assertions, timeout
bounded, ``BENCH_scenarios_smoke.json``.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.distributed import DistributedCoordinator, PersistentWorkerPool, SpatialPartitioner
from repro.online import BatchedSimulator
from repro.online.batch import BatchConfig
from repro.scenarios import compile_scenario, get_scenario, run_scenario_suite, scenario_names

#: Scale of the full verification run (every scenario keeps its shape; the
#: library defaults are for city-scale demos, this is bench-box sized).
FULL_TRIPS, FULL_DRIVERS = 400, 48

#: CI smoke scale: one scenario, small enough for a tiny runner.
SMOKE_TRIPS, SMOKE_DRIVERS = 200, 24

GRID_ROWS, GRID_COLS = 2, 2
POOL_WORKERS = 2

#: Rolling-horizon knobs of the suite's ``stream-horizon`` rows (the tuned
#: defaults of ``bench_rolling_horizon``; the forecaster is EWMA because a
#: live stream cannot see the future).
HORIZON, OVERLAP = 16, 4


def _solution_fingerprint(solution) -> tuple:
    return (
        solution.assignment(),
        tuple((p.driver_id, p.task_indices, p.profit) for p in solution.plans),
        solution.total_value,
    )


def _verify_scenario(spec, pools) -> dict:
    """Compile determinism + offline/stream executor parity for one spec.

    Returns the per-scenario verification record that lands in the JSON.
    """
    compiled = compile_scenario(spec)
    deterministic = compiled.checksum() == compile_scenario(spec).checksum()
    instance = compiled.instance
    partitioner = SpatialPartitioner(spec.region, GRID_ROWS, GRID_COLS)

    offline_prints = []
    for executor, pool in pools.items():
        coordinator = DistributedCoordinator(partitioner, "greedy", executor=executor)
        offline_prints.append(
            _solution_fingerprint(coordinator.solve(instance, pool=pool).solution)
        )
    offline_parity = all(p == offline_prints[0] for p in offline_prints)

    batches = compiled.arrival_batches()
    config = BatchConfig(window_s=spec.window_s)
    stream_prints = []
    wait_means = []
    for executor, pool in pools.items():
        coordinator = DistributedCoordinator(partitioner, executor=executor)
        result = coordinator.solve_stream(instance, batches, config=config, pool=pool)
        stream_prints.append(_solution_fingerprint(result.solution))
        wait_means.append(result.report.mean_wait_s)
    stream_parity = all(p == stream_prints[0] for p in stream_prints)
    wait_parity = all(w == wait_means[0] for w in wait_means)

    # Stream == offline replay: a 1x1 "shard" stream must equal the plain
    # batched simulator run over the completed task set.
    replay = BatchedSimulator(instance, config).run()
    mono = DistributedCoordinator(SpatialPartitioner(spec.region, 1, 1))
    mono_stream = mono.solve_stream(instance, batches, config=config)
    replay_parity = (
        mono_stream.solution.assignment() == replay.assignment()
        and mono_stream.report.wait_total_s == replay.total_wait_s
    )

    return {
        "checksum": compiled.checksum(),
        "compile_deterministic": deterministic,
        "offline_parity": offline_parity,
        "stream_parity": stream_parity,
        "stream_wait_parity": wait_parity,
        "stream_equals_offline_replay": replay_parity,
        "task_count": instance.task_count,
        "driver_count": instance.driver_count,
        "mean_wait_s": wait_means[0],
    }


def _run_verified_suite(trips, drivers, names, save_json, artifact_name):
    specs = [get_scenario(name).with_scale(trips, drivers) for name in names]
    start = time.perf_counter()
    pools = {}
    verification = {}
    try:
        for executor in ("serial", "process"):
            pools[executor] = PersistentWorkerPool(
                executor=executor, worker_count=POOL_WORKERS
            )
        for spec in specs:
            verification[spec.name] = _verify_scenario(spec, pools)
        suite = run_scenario_suite(
            specs,
            solvers=("greedy",),
            stream=True,
            rows=GRID_ROWS,
            cols=GRID_COLS,
            pool=pools["process"],
            horizon=HORIZON,
            overlap=OVERLAP,
            forecast="ewma",
        )
    finally:
        for pool in pools.values():
            pool.close()

    # Acceptance criterion of the exact-tier ROADMAP item: every published
    # row carries the optimality-gap columns, and the gap is never negative.
    for row in (row.as_dict() for row in suite.rows):
        for key in ("greedy_revenue", "lp_revenue", "lagrangian_bound", "optimality_gap"):
            assert row[key] is not None, f"row {row['scenario']}/{row['mode']} lost {key}"
        assert row["optimality_gap"] >= 0.0
        assert row["greedy_revenue"] <= row["lp_revenue"] + 1e-6
        assert row["lp_revenue"] <= row["lagrangian_bound"] + 1e-6

    all_parity = all(
        record["compile_deterministic"]
        and record["offline_parity"]
        and record["stream_parity"]
        and record["stream_wait_parity"]
        and record["stream_equals_offline_replay"]
        for record in verification.values()
    )
    payload = {
        "scenario_count": len(specs),
        "scenarios": names,
        "task_count": max(r["task_count"] for r in verification.values()),
        "driver_count": max(r["driver_count"] for r in verification.values()),
        "worker_count": POOL_WORKERS,
        "grid": f"{GRID_ROWS}x{GRID_COLS}",
        "horizon": HORIZON,
        "overlap": OVERLAP,
        "forecast": "ewma",
        "solution_parity": all_parity,
        "verification": verification,
        "rows": [row.as_dict() for row in suite.rows],
        "wall_clock_s": time.perf_counter() - start,
        "cpu_count": os.cpu_count(),
    }
    save_json(artifact_name, payload)
    return payload


@pytest.mark.benchmark(group="scenarios")
def test_scenario_suite_full(save_json):
    """Every built-in scenario: determinism + executor parity + suite rows."""
    payload = _run_verified_suite(
        FULL_TRIPS, FULL_DRIVERS, scenario_names(), save_json, "scenarios"
    )
    assert payload["scenario_count"] >= 5
    for name, record in payload["verification"].items():
        assert record["compile_deterministic"], f"{name}: compile not deterministic"
        assert record["offline_parity"], f"{name}: offline executors disagree"
        assert record["stream_parity"], f"{name}: streamed executors disagree"
        assert record["stream_wait_parity"], f"{name}: wait totals disagree"
        assert record["stream_equals_offline_replay"], f"{name}: stream != replay"
    # Every scenario must actually move orders (no degenerate city days).
    stream_rows = [row for row in payload["rows"] if row["mode"] == "stream-batched"]
    assert len(stream_rows) == payload["scenario_count"]
    assert all(row["serve_rate"] > 0.0 for row in stream_rows)
    # Every scenario also carries its rolling-horizon comparison row.
    horizon_rows = [row for row in payload["rows"] if row["mode"] == "stream-horizon"]
    assert len(horizon_rows) == payload["scenario_count"]
    assert all(row["serve_rate"] > 0.0 for row in horizon_rows)


@pytest.mark.benchmark(group="scenarios")
def test_scenario_smoke(save_json):
    """CI gate: one built-in scenario, 2 workers, parity asserted."""
    payload = _run_verified_suite(
        SMOKE_TRIPS, SMOKE_DRIVERS, ["stadium-event"], save_json, "scenarios_smoke"
    )
    record = payload["verification"]["stadium-event"]
    assert record["compile_deterministic"]
    assert record["offline_parity"]
    assert record["stream_parity"]
    assert record["stream_equals_offline_replay"]
    assert payload["solution_parity"]
