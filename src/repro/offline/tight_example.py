"""The adversarial instance showing the ``1/(D+1)`` ratio is tight (Fig. 2).

Lemma 3 of the paper constructs a graph on which the greedy algorithm
achieves exactly ``1/((D+1)(1-eps))`` of the optimum.  The paper's
construction is stated on an abstract node-weighted graph; this module
realises the same structure *geometrically*, so it runs through the full
pipeline (task maps, costs, pricing) of this library:

* ``D`` "chain" tasks zig-zag between a north and a south street.  Every task
  has a net gain of exactly 1 (its price is its service cost plus one), but
  the empty drive between consecutive chain tasks costs almost the same as
  the gain, so chaining all ``D`` tasks is only marginally better than
  serving a single task.
* ``D`` "local" drivers each have a travel plan and working window that fit
  exactly one chain task — serving it costs them nothing extra, so each would
  pocket the full price.
* One "long-haul" driver (driver 1) can serve the whole chain, or one extra
  task (task 0) that nobody else can reach.

The greedy algorithm picks driver 1's chain (the single highest-profit path),
which simultaneously blocks all ``D`` local drivers *and* strands task 0 —
``D + 1`` optimal paths intersect the one greedy path, which is exactly the
counting argument behind Theorem 1.  As ``eps -> 0`` the achieved ratio tends
to ``1/(D+1)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

from ..core.solution import evaluate_plans
from ..geo import GeoPoint, HaversineEstimator, TravelModel
from ..market.cost import MarketCostModel
from ..market.driver import Driver
from ..market.instance import MarketInstance
from ..market.task import Task


@dataclass(frozen=True)
class TightExample:
    """The constructed instance together with its analytically expected values."""

    instance: MarketInstance
    chain_length: int
    epsilon: float
    #: Profit of the single path the greedy algorithm selects.
    expected_greedy_value: float
    #: Value of the optimal assignment (one task per driver).
    expected_optimal_value: float

    @property
    def expected_ratio(self) -> float:
        """Greedy / optimum — tends to ``1/(D+1)`` as ``epsilon`` shrinks."""
        return self.expected_greedy_value / self.expected_optimal_value

    @property
    def theoretical_bound(self) -> float:
        """The ``1/(D+1)`` guarantee of Theorem 1."""
        return 1.0 / (self.chain_length + 1)


def build_tight_example(chain_length: int = 4, epsilon: float = 0.05) -> TightExample:
    """Construct the adversarial instance for a given chain length ``D``.

    Parameters
    ----------
    chain_length:
        ``D`` — the number of chain tasks (and of local drivers).
    epsilon:
        How much cheaper the connecting empty drives are than the per-task
        gain of 1; smaller values push the achieved ratio closer to the
        ``1/(D+1)`` bound but leave less numerical slack.
    """
    if chain_length < 2:
        raise ValueError("chain_length must be at least 2")
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must be in (0, 1)")

    speed_kmh = 30.0
    cost_per_km = 0.12
    travel_model = TravelModel(
        HaversineEstimator(circuity=1.0), speed_kmh=speed_kmh, cost_per_km=cost_per_km
    )
    cost_model = MarketCostModel(travel_model)

    # Geometry: a north and a south street `height_km` apart; chain task k
    # drives north -> south at easting k * east_step_km.
    height_km = (1.0 - epsilon) / cost_per_km
    east_step_km = 0.2
    anchor = GeoPoint(41.20, -8.65)

    def north(k: int) -> GeoPoint:
        return anchor.offset_km(0.0, k * east_step_km)

    def south(k: int) -> GeoPoint:
        return anchor.offset_km(-height_km, k * east_step_km)

    ride_s = height_km / speed_kmh * 3600.0
    # The empty drive from one task's drop-off back up to the next task's
    # pickup covers the diagonal (height plus the small eastward step); give
    # it a one-minute margin so the connecting arcs of Eq. (3) exist.
    deadhead_km = math.hypot(height_km, east_step_km)
    deadhead_s = deadhead_km / speed_kmh * 3600.0 + 60.0
    slack_s = 120.0
    period_s = ride_s + deadhead_s + slack_s
    t0 = 8.0 * 3600.0

    tasks: List[Task] = []
    chain_price = height_km * cost_per_km + 1.0  # gain of exactly 1 per task
    for k in range(chain_length):
        start = t0 + k * period_s
        tasks.append(
            Task(
                task_id=f"chain-{k}",
                publish_ts=start - 600.0,
                source=north(k),
                destination=south(k),
                start_deadline_ts=start,
                end_deadline_ts=start + ride_s + slack_s,
                price=chain_price,
                distance_km=height_km,
            )
        )
    chain_end = tasks[-1].end_deadline_ts

    # Task 0: only the long-haul driver can serve it; its window spans the
    # whole chain so it cannot be combined with any chain task.
    extra_origin = anchor.offset_km(0.0, -2.0 * east_step_km)
    extra_destination = anchor.offset_km(-height_km, -2.0 * east_step_km)
    extra_task = Task(
        task_id="extra-0",
        publish_ts=t0 - 600.0,
        source=extra_origin,
        destination=extra_destination,
        start_deadline_ts=t0,
        end_deadline_ts=chain_end,
        price=chain_price,
        distance_km=height_km,
    )
    tasks.append(extra_task)

    # The long-haul driver needs enough post-chain slack to reach her own
    # destination from the extra task's drop-off (a few hundred metres west
    # of the chain), otherwise task 0 would not even be on her task map.
    tail_slack_s = (chain_length + 3) * east_step_km / speed_kmh * 3600.0 + slack_s
    drivers: List[Driver] = [
        Driver(
            driver_id="long-haul",
            source=north(0),
            destination=south(chain_length - 1),
            start_ts=t0 - slack_s,
            end_ts=chain_end + tail_slack_s,
        )
    ]
    for k in range(chain_length):
        task = tasks[k]
        drivers.append(
            Driver(
                driver_id=f"local-{k}",
                source=task.source,
                destination=task.destination,
                start_ts=task.start_deadline_ts - 60.0,
                end_ts=task.end_deadline_ts + 60.0,
            )
        )

    instance = MarketInstance.create(drivers=drivers, tasks=tasks, cost_model=cost_model)

    # Analytic values (see module docstring): the greedy chain is worth
    # D - (D-2)*(1-eps) (plus the small eastward offsets), each local driver's
    # single task is worth ~2-eps, and the long-haul driver's alternative
    # (task 0) is also worth ~2-eps.
    long_haul = drivers[0]
    greedy_value, optimal_value, *local_values = evaluate_plans(
        instance,
        [(long_haul, tuple(range(chain_length))), (long_haul, (chain_length,))]
        + [(driver, (k,)) for k, driver in enumerate(drivers[1:])],
    )
    for value in local_values:
        optimal_value += value

    return TightExample(
        instance=instance,
        chain_length=chain_length,
        epsilon=epsilon,
        expected_greedy_value=greedy_value,
        expected_optimal_value=optimal_value,
    )
