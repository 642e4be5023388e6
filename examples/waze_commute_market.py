"""A Waze-Rider-style commute ("hitchhiking") market.

Section IV-C of the paper highlights Google's Waze Rider: commuters offer
rides along their daily commute and prices are kept near cost.  A commute
window is short, so the number of rides one driver can chain stays small.
That number is the diameter ``D`` in the greedy algorithm's ``1/(D+1)``
guarantee (Theorem 1).  On this seeded market D = 4, so greedy is guaranteed
1/5 of the optimum; it reaches about 0.89 of it.

The script builds a morning commute market (drivers with distinct home ->
work travel plans, riders requesting rides inside the same window), prints
D and the guarantee it implies, solves the market with the greedy algorithm,
checks greedy's value against that guarantee, and compares it with the exact
optimum and both online heuristics.

Run with::

    python examples/waze_commute_market.py
"""

from __future__ import annotations

from repro import (
    MaxMarginDispatcher,
    NearestDispatcher,
    exact_optimum,
    generate_trace,
    greedy_assignment,
    market_diameter,
    market_from_trace,
    run_online,
)
from repro.analysis import format_table
from repro.pricing import FareSchedule, LinearPricing
from repro.trace import DriverGenerationConfig, DriverScheduleGenerator, WorkingModel


def main() -> None:
    # Morning-peak ride requests only.
    all_trips = generate_trace(trip_count=800, seed=31)
    morning = [t for t in all_trips if 7.0 * 3600 <= t.start_ts % 86400 < 9.5 * 3600][:80]

    # Commuter drivers: distinct home and work locations, short windows that
    # cover one commute, generated with the hitchhiking working model.
    generator = DriverScheduleGenerator(
        DriverGenerationConfig(
            working_model=WorkingModel.HITCHHIKING,
            shift_hours_mean=0.75,
            shift_hours_jitter=0.2,
            earliest_start_s=7.0 * 3600,
            latest_start_s=8.5 * 3600,
            seed=32,
        )
    )
    commuters = generator.generate_from_trips(morning, count=30)

    # Waze Rider keeps fares near cost: low per-km rate, no per-minute meter.
    pricing = LinearPricing(schedule=FareSchedule(beta1_per_km=0.35, beta2_per_s=0.0, base_fare=0.5))
    market = market_from_trace(morning, commuters, pricing=pricing)

    diameter = market_diameter(market)
    print(
        f"Commute market: {market.task_count} ride requests, {market.driver_count} commuter drivers"
    )
    print(f"Graph diameter D = {diameter} -> greedy guarantee 1/(D+1) = {1.0 / (diameter + 1):.2f}")

    greedy = greedy_assignment(market)
    greedy.validate()
    optimum = exact_optimum(market)
    nearest = run_online(market, NearestDispatcher(seed=5))
    max_margin = run_online(market, MaxMarginDispatcher())
    assert greedy.total_value >= optimum.optimum / (diameter + 1) - 1e-9, "Theorem 1 violated"

    rows = [
        ["Greedy (offline)", greedy.total_value, greedy.total_value / optimum.optimum, greedy.serve_rate],
        ["maxMargin (online)", max_margin.total_value, max_margin.total_value / optimum.optimum, max_margin.serve_rate],
        ["Nearest (online)", nearest.total_value, nearest.total_value / optimum.optimum, nearest.serve_rate],
        ["Exact optimum Z*", optimum.optimum, 1.0, optimum.solution.serve_rate],
    ]
    print()
    print(format_table(["algorithm", "drivers' profit", "fraction of Z*", "serve rate"], rows))

    rides_per_driver = [plan.task_count for plan in greedy.iter_nonempty_plans()]
    print(
        f"\nUnder the greedy plan {len(rides_per_driver)} commuters give rides; "
        f"the largest task list has {max(rides_per_driver)} ride(s) "
        "(the short commute windows keep D small, exactly the Waze Rider regime)."
    )


if __name__ == "__main__":
    main()
