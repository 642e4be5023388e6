"""Parity contract 20: plans priced and checked from the legs they drive
(``evaluate_plans``) equal the same plans read off the drivers' built task
maps (``tests/taskmap_oracle.py``), bit for bit — and the elementwise leg
batch behind the evaluator equals the leg matrix behind the task maps."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import Objective, evaluate_plans
from repro.geo import (
    EquirectangularEstimator,
    GeoPoint,
    HaversineEstimator,
    ManhattanEstimator,
    TravelModel,
)
from repro.market import Driver, MarketCostModel, MarketInstance, Task

from ..taskmap_oracle import is_feasible_path, path_profit

ANCHOR = GeoPoint(41.17, -8.62)

ESTIMATORS = {
    "haversine": HaversineEstimator(circuity=1.3),
    "equirectangular": EquirectangularEstimator(circuity=1.2),
    "manhattan": ManhattanEstimator(),
}


def build_market(seed: int, task_count: int, driver_count: int, metric: str) -> MarketInstance:
    """A random market with loose enough windows that drivers chain tasks,
    customer valuations above the prices (so the two objectives differ) and
    a mix of trace and estimated ride distances."""
    rng = random.Random(seed)
    cost_model = MarketCostModel(TravelModel(ESTIMATORS[metric], speed_kmh=30.0, cost_per_km=0.12))

    def point() -> GeoPoint:
        return ANCHOR.offset_km(rng.uniform(-4.0, 4.0), rng.uniform(-4.0, 4.0))

    tasks = []
    for m in range(task_count):
        source, destination = point(), point()
        distance = max(0.3, source.haversine_km(destination))
        start = rng.uniform(0.0, 6.0) * 3600.0
        price = rng.uniform(1.0, 3.0) + distance * rng.uniform(0.5, 1.2)
        tasks.append(
            Task(
                task_id=f"t{m}",
                publish_ts=start - 600.0,
                source=source,
                destination=destination,
                start_deadline_ts=start,
                end_deadline_ts=start + distance / 30.0 * 3600.0 * rng.uniform(0.9, 1.8) + 60.0,
                price=price,
                wtp=price * rng.uniform(1.0, 1.4),
                # Trace distances shorter than the estimate break the triangle
                # inequality, so an inner task can strand the driver although
                # the path's last one does not.
                distance_km=rng.choice([None, distance, distance * rng.uniform(0.05, 1.0)]),
            )
        )
    drivers = []
    for n in range(driver_count):
        start = rng.uniform(0.0, 4.0) * 3600.0
        drivers.append(
            Driver(f"d{n}", point(), point(), start, start + rng.uniform(1.0, 5.0) * 3600.0)
        )
    return MarketInstance.create(drivers=drivers, tasks=tasks, cost_model=cost_model)


def random_walk(task_map, rng: random.Random) -> tuple:
    """A feasible path: an entry task, then successors while any remain."""
    entries = [int(m) for m in task_map.entry_tasks()]
    if not entries:
        return ()
    path = [rng.choice(entries)]
    while rng.random() < 0.8:
        nexts = [int(m) for m in task_map.successors_of(path[-1])]
        if not nexts:
            break
        path.append(rng.choice(nexts))
    return tuple(path)


def candidate_paths(instance: MarketInstance, rng: random.Random):
    """Per driver: the empty list, feasible walks, and each walk corrupted —
    reversed, duplicated, shuffled out of window, negative, out of range."""
    count = instance.task_count
    plans = []
    for driver in instance.drivers:
        task_map = instance.task_map(driver.driver_id)
        plans.append((driver, ()))
        for _ in range(3):
            walk = random_walk(task_map, rng)
            if not walk:
                continue
            k = rng.randrange(len(walk))
            plans += [
                (driver, walk),
                (driver, walk[::-1]),
                (driver, walk + walk[:1]),
                (driver, walk[:k] + (walk[k] - count,) + walk[k + 1 :]),
                (driver, walk[:k] + (count + rng.randrange(3),) + walk[k + 1 :]),
            ]
        plans.append((driver, tuple(rng.sample(range(count), rng.randint(1, min(4, count))))))
    return plans


def assert_matches_oracle(instance: MarketInstance, plans) -> int:
    """Evaluate ``plans`` on a fresh copy of ``instance`` (no task map in
    reach) and compare with the oracle; returns how many were feasible."""
    fresh = MarketInstance(instance.drivers, instance.tasks, instance.cost_model)
    feasible = 0
    for objective in Objective:
        profits = evaluate_plans(fresh, plans, objective)
        for (driver, path), profit in zip(plans, profits):
            task_map = instance.task_map(driver.driver_id)
            if is_feasible_path(task_map, path):
                feasible += 1
                expected = path_profit(task_map, path, use_valuation=objective.uses_valuation)
                assert profit == expected, (driver.driver_id, path, objective)
            else:
                assert profit is None, (driver.driver_id, path)
    assert "task_network" not in fresh.__dict__
    assert "task_maps" not in fresh.__dict__
    return feasible


class TestEvaluatorMatchesTaskMapOracle:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        task_count=st.integers(min_value=1, max_value=16),
        driver_count=st.integers(min_value=1, max_value=5),
        metric=st.sampled_from(sorted(ESTIMATORS)),
    )
    def test_random_markets(self, seed, task_count, driver_count, metric):
        instance = build_market(seed, task_count, driver_count, metric)
        assert_matches_oracle(instance, candidate_paths(instance, random.Random(seed)))

    @pytest.mark.parametrize("metric", sorted(ESTIMATORS))
    def test_cases_are_not_vacuous(self, metric):
        instance = build_market(7, 30, 6, metric)
        plans = candidate_paths(instance, random.Random(7))
        feasible = assert_matches_oracle(instance, plans)
        chains = [path for _, path in plans if len(path) >= 2]
        assert feasible > 2 * instance.driver_count  # more than the empty plans
        assert len(chains) > 0
        assert feasible < 2 * len(plans)  # and some plans are rejected

    def test_every_task_must_let_the_driver_get_home(self):
        """Task 1 ends 8 km from home with no time left to drive it; task 2's
        recorded ride is 0.1 km although it ends at home.  Every leg of
        ``(0, 1, 2)`` fits in time, but the task map has no ``1 -> sink``
        arc, so the path is infeasible there and must be here."""
        cost_model = MarketCostModel(TravelModel(HaversineEstimator(circuity=1.0)))
        home, near, far = ANCHOR, ANCHOR.offset_km(0.0, 0.5), ANCHOR.offset_km(0.0, 8.0)
        tasks = [
            Task("t0", 0.0, home, near, 100.0, 400.0, 2.0, distance_km=0.5),
            Task("t1", 0.0, near, far, 1000.0, 2200.0, 5.0, distance_km=7.5),
            Task("t2", 0.0, far, home, 2300.0, 2500.0, 5.0, distance_km=0.1),
        ]
        driver = Driver("d", home, home, 0.0, 2600.0)
        instance = MarketInstance.create([driver], tasks, cost_model)
        task_map = instance.task_map("d")
        assert list(task_map.exit_ok) == [True, False, True]
        assert [list(s) for s in instance.task_network.successors[:2]] == [[1, 2], [2]]
        plans = [(driver, (0, 1, 2)), (driver, (0, 2)), (driver, (2,))]
        assert assert_matches_oracle(instance, plans) == 2 * 2

    def test_empty_market(self):
        instance = build_market(1, 1, 2, "haversine").with_tasks([])
        assert evaluate_plans(instance, [(d, ()) for d in instance.drivers]) == [0.0, 0.0]
        assert evaluate_plans(instance, [(instance.drivers[0], (0,))]) == [None]


points = st.lists(
    st.tuples(
        st.floats(min_value=-60.0, max_value=60.0),
        st.floats(min_value=-170.0, max_value=170.0),
        st.floats(min_value=-60.0, max_value=60.0),
        st.floats(min_value=-170.0, max_value=170.0),
    ),
    min_size=1,
    max_size=40,
)


class TestPairwiseLegs:
    @pytest.mark.parametrize("metric", sorted(ESTIMATORS))
    @given(rows=points)
    def test_pairwise_legs_equal_leg_matrix_diagonal(self, metric, rows):
        cost_model = MarketCostModel(TravelModel(ESTIMATORS[metric], speed_kmh=27.0, cost_per_km=0.13))
        coords = np.array(rows, dtype=float)
        origins, destinations = coords[:, :2], coords[:, 2:]
        times, costs = cost_model.pairwise_legs(origins, destinations)
        matrix_times, matrix_costs = cost_model.pairwise_leg_matrix(origins, destinations)
        assert times.tobytes() == np.ascontiguousarray(np.diagonal(matrix_times)).tobytes()
        assert costs.tobytes() == np.ascontiguousarray(np.diagonal(matrix_costs)).tobytes()

    def test_accepts_geopoints(self):
        cost_model = MarketCostModel()
        a = [ANCHOR, ANCHOR.offset_km(1.0, 2.0)]
        b = [ANCHOR.offset_km(-3.0, 0.5), ANCHOR]
        times, costs = cost_model.pairwise_legs(a, b)
        for i in range(2):
            leg = cost_model.leg(a[i], b[i])
            assert times[i] == pytest.approx(leg.time_s, rel=1e-12)
            assert costs[i] == pytest.approx(leg.cost, rel=1e-12)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            MarketCostModel().pairwise_legs([ANCHOR], [ANCHOR, ANCHOR])
