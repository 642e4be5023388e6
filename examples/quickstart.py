"""Quickstart: build a small ride-sharing market and dispatch it three ways.

Run with::

    python examples/quickstart.py

The script generates one synthetic day of Porto-like trips, turns them into
priced tasks, Monte-Carlo-generates a driver fleet, and then solves the same
market with the paper's three algorithms — the offline greedy (Algorithm 1),
the online maximum-marginal-value heuristic (Algorithm 4) and the online
nearest-driver heuristic (Algorithm 3) — comparing each against the LP
relaxation upper bound Z*_f.
"""

from __future__ import annotations

from repro import (
    MaxMarginDispatcher,
    NearestDispatcher,
    OnlineSimulator,
    compute_upper_bound,
    generate_drivers,
    generate_trace,
    greedy_assignment,
    market_from_trace,
)
from repro.analysis import format_table


def main() -> None:
    print("Generating one synthetic day of trips and a driver fleet ...")
    trips = generate_trace(trip_count=200, seed=1)
    drivers = generate_drivers(count=40, seed=2)
    market = market_from_trace(trips, drivers)
    print(f"  market: {market.task_count} tasks, {market.driver_count} drivers")

    print("Solving offline with the greedy algorithm (Algorithm 1) ...")
    greedy = greedy_assignment(market)
    greedy.validate()

    print("Replaying the day online with maxMargin (Algorithm 4) and Nearest (Algorithm 3) ...")
    max_margin = OnlineSimulator(market, MaxMarginDispatcher()).run()
    nearest = OnlineSimulator(market, NearestDispatcher()).run()

    print("Computing the LP-relaxation upper bound Z*_f ...")
    bound = compute_upper_bound(market)

    rows = []
    for name, result in (
        ("Greedy (offline)", greedy),
        ("maxMargin (online)", max_margin),
        ("Nearest (online)", nearest),
    ):
        rows.append(
            [
                name,
                result.total_value,
                bound / result.total_value if result.total_value > 0 else float("inf"),
                result.served_count,
                result.serve_rate,
            ]
        )
    print()
    print(format_table(["algorithm", "drivers' profit", "ratio vs Z*_f", "served", "serve rate"], rows))
    print(f"\nLP relaxation upper bound Z*_f = {bound:.2f}")

    busiest = max(greedy.iter_nonempty_plans(), key=lambda plan: plan.task_count)
    print(
        f"\nBusiest driver under the greedy plan: {busiest.driver_id} "
        f"serves {busiest.task_count} rides for a profit of {busiest.profit:.2f}"
    )


if __name__ == "__main__":
    main()
