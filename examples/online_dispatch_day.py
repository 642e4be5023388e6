"""Replay a full day of ride requests through the online dispatchers.

Scenario (the paper's first motivating application): an Uber-style platform
receives orders in real time and must answer each rider instantly — accept
and name a driver, or reject.  The platform cannot see future orders, so the
offline planner is out; the paper's two online heuristics compete instead.

The script:

1. generates a day of trips and feeds every pickup request into a zone-based
   surge engine so the fares reflect local demand/supply imbalance (Eq. 15
   with a dynamic multiplier);
2. replays the priced order stream through the Nearest (Algorithm 3) and
   maxMargin (Algorithm 4) dispatchers, plus the value-sorted offline variant
   of maxMargin the paper sketches;
3. compares profit, serve rate and rejection counts, and shows how far each
   online rule lands from the clairvoyant offline greedy plan.

Run with::

    python examples/online_dispatch_day.py
"""

from __future__ import annotations

from repro import (
    MaxMarginDispatcher,
    NearestDispatcher,
    OnlineSimulator,
    generate_drivers,
    generate_trace,
    greedy_assignment,
    market_from_trace,
)
from repro.analysis import format_table
from repro.online import TaskOrdering, run_online
from repro.pricing import SurgeConfig, SurgeEngine, SurgePricing


def main() -> None:
    trips = generate_trace(trip_count=250, seed=21)
    drivers = generate_drivers(count=45, seed=22)

    # Feed the surge engine with the day's demand and a thinner supply signal,
    # then price every order with the resulting zone multipliers.
    engine = SurgeEngine(SurgeConfig(sensitivity=0.6, max_multiplier=2.5))
    for trip in trips:
        engine.record_demand(trip.origin, trip.start_ts)
    for driver in drivers:
        engine.record_supply(driver.source, driver.start_ts)
    market = market_from_trace(trips, drivers, pricing=SurgePricing(engine=engine))

    surged = sum(
        1
        for task, trip in zip(market.tasks, trips)
        if engine.multiplier(trip.origin, trip.start_ts) > 1.0
    )
    print(f"{market.task_count} orders priced; {surged} of them carry a surge multiplier > 1.0")

    outcomes = {
        "Nearest (Algorithm 3)": run_online(market, NearestDispatcher(seed=3)),
        "maxMargin (Algorithm 4)": run_online(market, MaxMarginDispatcher()),
        "maxMargin, value-sorted (offline variant)": run_online(
            market, MaxMarginDispatcher(), ordering=TaskOrdering.VALUE
        ),
    }
    offline = greedy_assignment(market)

    rows = []
    for name, outcome in outcomes.items():
        rows.append(
            [
                name,
                outcome.total_value,
                outcome.total_value / offline.total_value,
                outcome.serve_rate,
                len(outcome.rejected_tasks),
            ]
        )
    rows.append(
        ["Greedy (clairvoyant offline)", offline.total_value, 1.0, offline.serve_rate, 0]
    )

    print()
    print(
        format_table(
            ["dispatcher", "drivers' profit", "vs offline", "serve rate", "rejected"], rows
        )
    )

    max_margin = outcomes["maxMargin (Algorithm 4)"]
    busiest = max(max_margin.plans, key=lambda p: p.task_count)
    print(
        f"\nUnder maxMargin the busiest driver ({busiest.driver_id}) chained "
        f"{busiest.task_count} rides for {busiest.profit:.2f} in profit."
    )


if __name__ == "__main__":
    main()
