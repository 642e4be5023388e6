"""Declarative city workloads: the scenario engine end to end.

Every other example runs the one calibrated synthetic Porto day.  Real
platforms live off the happy path — a stadium lets out, rain slows the
whole city, a third of the fleet goes on strike — and the scenario engine
expresses those days declaratively and compiles them deterministically into
the exact inputs the offline and streaming stacks already consume.  This
walkthrough:

1. lists the built-in scenario library (one spec per imagined city day);
2. composes a *custom* scenario — an evening festival with a road closure
   and a late supply shock — from the typed event vocabulary;
3. compiles it twice and shows the compile is bit-reproducible;
4. runs it through the offline sharded solver and as a live sharded stream
   on a persistent worker pool — same compiled artifacts, both stacks;
5. sweeps several scenarios x dispatch modes on one warm pool with the
   scenario suite and prints the comparison table (serve rate, revenue,
   mean customer wait, shard-load skew).

Run with::

    python examples/scenario_showcase.py
"""

from __future__ import annotations

from repro.distributed import DistributedCoordinator, SpatialPartitioner
from repro.online.batch import BatchConfig
from repro.scenarios import (
    DemandSurge,
    ScenarioSpec,
    SpatialFootprint,
    SupplyShock,
    ZoneClosure,
    compile_scenario,
    get_scenario,
    run_scenario_suite,
    scenario_names,
)

#: Small enough for a laptop demo, large enough to show scenario contrasts.
TRIPS, DRIVERS = 300, 36


def showcase_library() -> None:
    print("=== built-in scenario library ===")
    for name in scenario_names():
        spec = get_scenario(name)
        events = ", ".join(type(event).__name__ for event in spec.events)
        print(f"  {name:18s} [{events}]")
    print()


def build_festival() -> ScenarioSpec:
    """A custom scenario: riverfront festival, cordon, late reinforcements."""
    riverfront = SpatialFootprint(south=0.05, west=0.30, north=0.30, east=0.70)
    cordon = SpatialFootprint(south=0.30, west=0.40, north=0.45, east=0.60)
    return ScenarioSpec(
        name="riverfront-festival",
        description="Evening festival on the river: surge, cordon, reinforcements.",
        trip_count=TRIPS,
        driver_count=DRIVERS,
        events=(
            DemandSurge(start_hour=19.0, end_hour=23.0, intensity=3.0, footprint=riverfront),
            ZoneClosure(start_hour=18.0, end_hour=23.0, footprint=cordon),
            SupplyShock(at_hour=20.0, driver_fraction=0.25, duration_hours=5.0),
        ),
    )


def run_festival(spec: ScenarioSpec) -> None:
    print(f"=== {spec.name}: compile + both stacks ===")
    compiled = compile_scenario(spec)
    again = compile_scenario(spec)
    print(
        f"compiled {len(compiled.trips)} trips, {compiled.instance.task_count} tasks, "
        f"{compiled.instance.driver_count} drivers"
    )
    print(f"deterministic: {compiled.checksum() == again.checksum()} "
          f"(checksum {compiled.checksum()[:12]})")

    partitioner = SpatialPartitioner(spec.region, 2, 2)
    with DistributedCoordinator(partitioner, "greedy", executor="process") as coordinator:
        offline = coordinator.solve(compiled.instance, pool=coordinator.stream_pool())
        print(
            f"offline-greedy : serve {offline.solution.serve_rate:.3f}, "
            f"value {offline.solution.total_value:.1f}, "
            f"{offline.report.shard_count} shards"
        )
        streamed = coordinator.solve_stream(
            compiled.instance,
            compiled.arrival_batches(),
            config=BatchConfig(window_s=spec.window_s),
            pool=coordinator.stream_pool(),
        )
        print(
            f"stream-batched : serve {streamed.solution.serve_rate:.3f}, "
            f"value {streamed.solution.total_value:.1f}, "
            f"mean wait {streamed.solution.mean_wait_s:.0f}s, "
            f"{streamed.report.batch_count} batches"
        )
    print()


def compare_city_days() -> None:
    print("=== scenario suite: one warm pool, scenarios x modes ===")
    suite = run_scenario_suite(
        [
            get_scenario(name).with_scale(TRIPS, DRIVERS)
            for name in ("morning-surge", "rainy-day", "driver-strike")
        ],
        solvers=("greedy",),
        stream=True,
        executor="process",
        worker_count=2,
    )
    print(suite.render())


def main() -> None:
    showcase_library()
    spec = build_festival()
    run_festival(spec)
    compare_city_days()


if __name__ == "__main__":
    main()
