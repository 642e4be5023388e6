"""Optimality-gap benchmark: the exact tier across the scenario library.

Regenerates the "revenue with error bars" table of the ROADMAP's exact-tier
item and pins parity contract 17 at benchmark scale:

* **gap table** — per scenario, the greedy / LP / Lagrangian sandwich and
  the relative optimality gaps (shipped-vs-bound and greedy-vs-bound), plus
  per-shard gap extremes;
* **contract 17** — the ``solver_name="lp"`` merge is bit-identical across
  the serial / process executors and on a warm pool, per scenario,
  with every per-shard bound record included in the fingerprint;
* **auto-selection** — ``solver_name="auto"`` at the default threshold:
  which shards kept greedy, and that the auto merge is executor-stable too;
* every gap in the artifact is asserted ``>= 0`` before it is written.

Artifacts: ``benchmarks/results/BENCH_optimality_gap.json`` (full) and
``BENCH_optimality_gap_smoke.json`` (CI gate: one scenario, 2 workers).
"""

from __future__ import annotations

import os
import time

import pytest

from repro.distributed import DistributedCoordinator, PersistentWorkerPool, SpatialPartitioner
from repro.offline import DEFAULT_GAP_THRESHOLD
from repro.scenarios import compile_scenario, get_scenario, scenario_names

FULL_TRIPS, FULL_DRIVERS = 300, 36
SMOKE_TRIPS, SMOKE_DRIVERS = 150, 18

GRID_ROWS, GRID_COLS = 2, 2
POOL_WORKERS = 2
EXECUTORS = ("serial", "process")


def _fingerprint(result) -> tuple:
    """Contract 17's merge fingerprint: solution + every per-shard bound."""
    return (
        result.solution.assignment(),
        tuple((p.driver_id, p.task_indices, p.profit) for p in result.solution.plans),
        result.report.total_value,
        result.report.per_shard_values,
        result.report.per_shard_bounds,
    )


def _gap_record(spec, pools) -> dict:
    """Solve one scenario with the exact tier and record bounds + parity."""
    compiled = compile_scenario(spec)
    instance = compiled.instance
    partitioner = SpatialPartitioner(spec.region, GRID_ROWS, GRID_COLS)

    greedy_start = time.perf_counter()
    greedy = DistributedCoordinator(partitioner, "greedy").solve(instance)
    greedy_wall = time.perf_counter() - greedy_start

    lp_prints, auto_prints = [], []
    lp_result = None
    lp_wall = 0.0
    for executor, pool in pools.items():
        start = time.perf_counter()
        result = DistributedCoordinator(partitioner, "lp", executor=executor).solve(
            instance, pool=pool
        )
        if executor == "serial":
            lp_result, lp_wall = result, time.perf_counter() - start
        lp_prints.append(_fingerprint(result))
        auto_prints.append(
            _fingerprint(
                DistributedCoordinator(
                    partitioner, "auto", executor=executor,
                    gap_threshold=DEFAULT_GAP_THRESHOLD,
                ).solve(instance, pool=pool)
            )
        )

    report = lp_result.report
    assert report.bounds_reported
    shard_gaps = [b.optimality_gap for b in report.per_shard_bounds]
    auto_report = DistributedCoordinator(
        partitioner, "auto", gap_threshold=DEFAULT_GAP_THRESHOLD
    ).solve(instance).report

    return {
        "task_count": instance.task_count,
        "driver_count": instance.driver_count,
        "shard_count": report.shard_count,
        "greedy_revenue": report.greedy_revenue,
        "lp_revenue": report.lp_revenue,
        "lagrangian_bound": report.lagrangian_bound,
        "upper_bound": report.upper_bound,
        "optimality_gap": report.optimality_gap,
        "greedy_gap": report.greedy_gap,
        "max_shard_gap": max(shard_gaps),
        "min_shard_gap": min(shard_gaps),
        "lp_integral_shards": sum(1 for b in report.per_shard_bounds if b.lp_integral),
        "lp_repaired_shards": sum(1 for b in report.per_shard_bounds if b.lp_repaired),
        "auto_greedy_shards": sum(
            1 for b in auto_report.per_shard_bounds if b.chosen_solver == "greedy"
        ),
        "auto_lp_shards": sum(
            1 for b in auto_report.per_shard_bounds if b.chosen_solver == "lp"
        ),
        "lp_parity": all(p == lp_prints[0] for p in lp_prints),
        "auto_parity": all(p == auto_prints[0] for p in auto_prints),
        "greedy_wall_s": greedy_wall,
        "lp_wall_s": lp_wall,
    }


def _run_gap_bench(trips, drivers, names, save_json, artifact_name) -> dict:
    specs = [get_scenario(name).with_scale(trips, drivers) for name in names]
    start = time.perf_counter()
    pools = {}
    records = {}
    try:
        for executor in EXECUTORS:
            pools[executor] = PersistentWorkerPool(
                executor=executor, worker_count=POOL_WORKERS
            )
        for spec in specs:
            records[spec.name] = _gap_record(spec, pools)
    finally:
        for pool in pools.values():
            pool.close()

    for name, record in records.items():
        # Contract 17's gap invariant, asserted before anything is published.
        assert record["optimality_gap"] >= 0.0, name
        assert record["greedy_gap"] >= 0.0, name
        assert record["min_shard_gap"] >= 0.0, name
        assert record["greedy_revenue"] <= record["lp_revenue"] + 1e-6, name
        assert record["lp_revenue"] <= record["upper_bound"] + 1e-6, name

    lp_parity = all(r["lp_parity"] for r in records.values())
    auto_parity = all(r["auto_parity"] for r in records.values())
    payload = {
        "scenario_count": len(specs),
        "scenarios": names,
        "task_count": max(r["task_count"] for r in records.values()),
        "driver_count": max(r["driver_count"] for r in records.values()),
        "grid": f"{GRID_ROWS}x{GRID_COLS}",
        "worker_count": POOL_WORKERS,
        "gap_threshold": DEFAULT_GAP_THRESHOLD,
        "lp_parity": lp_parity,
        "auto_parity": auto_parity,
        "solution_parity": lp_parity and auto_parity,
        "max_optimality_gap": max(r["optimality_gap"] for r in records.values()),
        "max_greedy_gap": max(r["greedy_gap"] for r in records.values()),
        "records": records,
        "wall_clock_s": time.perf_counter() - start,
        "cpu_count": os.cpu_count(),
    }
    save_json(artifact_name, payload)
    return payload


@pytest.mark.benchmark(group="optimality-gap")
def test_optimality_gap_full(save_json):
    """Every built-in scenario through the exact tier, parity asserted."""
    payload = _run_gap_bench(
        FULL_TRIPS, FULL_DRIVERS, scenario_names(), save_json, "optimality_gap"
    )
    assert payload["scenario_count"] >= 5
    for name, record in payload["records"].items():
        assert record["lp_parity"], f"{name}: lp merge diverged across executors"
        assert record["auto_parity"], f"{name}: auto merge diverged across executors"
        # The LP tier must actually certify something: the shipped solution
        # sits within a sane distance of the bound on every scenario.
        assert record["optimality_gap"] <= 0.25, f"{name}: gap implausibly large"
    # The tier is exact on integral shards, so at least some shards across
    # the library must close their gap completely.
    assert any(r["lp_integral_shards"] > 0 for r in payload["records"].values())


@pytest.mark.benchmark(group="optimality-gap")
def test_optimality_gap_smoke(save_json):
    """CI gate: one scenario, 2 workers, the same invariants."""
    payload = _run_gap_bench(
        SMOKE_TRIPS, SMOKE_DRIVERS, ["morning-surge"], save_json, "optimality_gap_smoke"
    )
    record = payload["records"]["morning-surge"]
    assert record["lp_parity"] and record["auto_parity"]
    assert record["optimality_gap"] >= 0.0
    assert record["auto_greedy_shards"] + record["auto_lp_shards"] == record["shard_count"]
