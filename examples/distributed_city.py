"""Distributed solving of a city-scale market.

The paper argues the matching problem must be partitioned at city scale to be
tractable — but not much further, because riders and drivers cross district
boundaries.  This example makes that trade-off concrete, and shows the
coordinator's *executor policy* knob (``serial`` / ``process``):

1. build one day of the Porto market;
2. solve it centrally with the greedy algorithm;
3. shard it into a 2x2 district grid and solve every shard under each
   executor policy via the :class:`DistributedCoordinator` — the merged
   solutions are bit-identical, only the wall clock changes;
4. sweep the grid to 4x4 districts and report how much objective value each
   sharding retains.

Pick ``executor="process"`` for city-scale instances (every core solves its
own shards) and ``"serial"`` for small instances, tests and debugging — see ``repro/distributed/coordinator.py`` for the full
decision guide.  For consuming a *live* order stream over the same shards,
see ``examples/streaming_city.py``.

Run with::

    python examples/distributed_city.py
"""

from __future__ import annotations

import time

from repro import (
    DistributedCoordinator,
    PORTO,
    SpatialPartitioner,
    generate_drivers,
    generate_trace,
    greedy_assignment,
    market_from_trace,
)
from repro.analysis import format_table
from repro.distributed import EXECUTOR_POLICIES


def main() -> None:
    trips = generate_trace(trip_count=400, seed=41)
    drivers = generate_drivers(count=80, seed=42)
    market = market_from_trace(trips, drivers)
    print(f"City market: {market.task_count} tasks, {market.driver_count} drivers")

    start = time.perf_counter()
    central = greedy_assignment(market)
    central_time = time.perf_counter() - start
    print(f"Central greedy: profit {central.total_value:.2f} in {central_time:.2f}s")

    # --- executor policies: same 2x2 sharding, bit-identical merges -------
    print("\nExecutor policies on the 2x2 grid (identical merged solutions):")
    policy_rows = []
    fingerprints = set()
    for executor in EXECUTOR_POLICIES:
        with DistributedCoordinator(
            SpatialPartitioner(PORTO, 2, 2), solver_name="greedy", executor=executor
        ) as coordinator:
            start = time.perf_counter()
            result = coordinator.solve(market)
            elapsed = time.perf_counter() - start
        fingerprints.add(
            (
                result.solution.total_value,
                tuple(sorted(result.solution.assignment().items())),
            )
        )
        policy_rows.append(
            [
                executor,
                result.report.worker_count,
                result.solution.total_value,
                elapsed,
                result.report.critical_path_speedup,
            ]
        )
    assert len(fingerprints) == 1, "executor policies must merge identically"
    print(
        format_table(
            ["executor", "workers", "profit", "wall clock (s)", "critical-path x"],
            policy_rows,
        )
    )

    # --- grid sweep: the retention/speed trade-off ------------------------
    rows = [["central (1 shard)", 1, central.total_value, 1.0, central_time, central.served_count]]
    for grid in ((2, 2), (4, 4)):
        with DistributedCoordinator(
            SpatialPartitioner(PORTO, *grid), solver_name="greedy", executor="process"
        ) as coordinator:
            start = time.perf_counter()
            result = coordinator.solve(market)
            elapsed = time.perf_counter() - start
        result.solution.validate()
        rows.append(
            [
                f"{grid[0]}x{grid[1]} districts",
                result.report.shard_count,
                result.solution.total_value,
                result.solution.total_value / central.total_value,
                elapsed,
                result.solution.served_count,
            ]
        )
        busiest = max(
            coordinator.partitioner.partition(market).shards, key=lambda s: s.task_count
        )
        print(
            f"  {grid[0]}x{grid[1]}: slowest shard {result.report.slowest_shard_s * 1000:.0f} ms, "
            f"busiest district has {busiest.task_count} tasks / {busiest.driver_count} drivers"
        )

    print()
    print(
        format_table(
            ["deployment", "shards", "profit", "retention", "wall clock (s)", "served"], rows
        )
    )
    print(
        "\nFiner grids cut per-shard work but lose the cross-district trips the paper "
        "warns about: district-level sharding trades a few percent of profit for an "
        "embarrassingly parallel solve."
    )


if __name__ == "__main__":
    main()
