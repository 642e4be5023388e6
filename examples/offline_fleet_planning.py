"""Offline fleet planning for a delivery service.

Scenario (the paper's second motivating application): an on-demand product
delivery platform knows tonight's batch of delivery orders in advance —
every order has a pickup window at a depot-side location and a drop-off
deadline at the customer.  The platform must hand each courier a complete
travel plan before the shift starts.

The script builds such a batch, plans it offline three ways — the greedy
approximation, the exact MILP optimum (the instance is small enough) and the
LP relaxation — and prints each courier's itinerary, demonstrating:

* the individual-rationality guarantee (no courier loses money),
* how close the 1/(D+1)-approximate greedy plan gets to the true optimum,
* the per-courier task lists a dispatcher would actually hand out.

Run with::

    python examples/offline_fleet_planning.py
"""

from __future__ import annotations

from repro import (
    compute_upper_bound,
    exact_optimum,
    generate_drivers,
    generate_trace,
    greedy_assignment,
    market_diameter,
    market_from_trace,
)
from repro.analysis import format_table
from repro.pricing import FareSchedule, LinearPricing
from repro.trace import WorkingModel


def main() -> None:
    # Tonight's batch: 60 delivery orders, 12 couriers doing evening shifts
    # that start and end at home ("home-work-home" working model).
    orders = generate_trace(trip_count=60, seed=11)
    couriers = generate_drivers(count=12, working_model=WorkingModel.HOME_WORK_HOME, seed=12)
    # Deliveries are priced per distance only (no per-minute meter).
    pricing = LinearPricing(schedule=FareSchedule(beta1_per_km=1.1, beta2_per_s=0.0, base_fare=1.5))
    market = market_from_trace(orders, couriers, pricing=pricing)

    print(f"Planning {market.task_count} deliveries for {market.driver_count} couriers")
    print(f"Maximum deliveries any single courier could chain (diameter D): {market_diameter(market)}")

    greedy = greedy_assignment(market)
    greedy.validate()
    exact = exact_optimum(market)
    bound = compute_upper_bound(market)

    print()
    print(
        format_table(
            ["quantity", "value"],
            [
                ["greedy plan profit", greedy.total_value],
                ["exact optimum Z*", exact.optimum],
                ["LP relaxation Z*_f", bound],
                ["greedy / optimum", greedy.total_value / exact.optimum],
                ["deliveries served (greedy)", float(greedy.served_count)],
                ["deliveries served (exact)", float(exact.solution.served_count)],
            ],
        )
    )

    print("\nPer-courier itineraries under the greedy plan:")
    rows = []
    for plan in sorted(greedy.iter_nonempty_plans(), key=lambda p: -p.profit):
        stops = " -> ".join(market.tasks[m].task_id.removeprefix("task-") for m in plan.task_indices)
        rows.append([plan.driver_id, plan.task_count, plan.profit, stops[:60]])
    print(format_table(["courier", "orders", "profit", "route"], rows))

    assert all(plan.profit > 0 for plan in greedy.iter_nonempty_plans()), (
        "individual rationality violated"
    )
    print("\nEvery courier with work earns a strictly positive profit (constraint 5b holds).")


if __name__ == "__main__":
    main()
