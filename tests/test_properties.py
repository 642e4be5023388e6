"""Cross-module property-based tests (hypothesis).

These exercise the core invariants of the framework on randomly generated
market instances:

* feasibility of every solver's output;
* the bound chain ``greedy <= Z* <= Z*_f <= Lagrangian``;
* the ``1/(D+1)`` approximation guarantee of Theorem 1;
* online outcomes never exceeding the offline optimum under trace-replay
  semantics.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import compute_upper_bound
from repro.core import MarketSolution
from repro.geo import (
    EquirectangularEstimator,
    GeoPoint,
    HaversineEstimator,
    ManhattanEstimator,
    TravelModel,
)
from repro.market import Driver, MarketCostModel, MarketInstance, Task, market_diameter
from repro.offline import (
    best_path,
    exact_optimum,
    greedy_assignment,
    lagrangian_bound,
)
from repro.online import MaxMarginDispatcher, NearestDispatcher, run_online

from .taskmap_oracle import is_feasible_path, path_excess_cost, path_profit

ANCHOR = GeoPoint(41.17, -8.62)
SPEED_KMH = 30.0
COST_PER_KM = 0.12


def build_instance(seed: int, task_count: int, driver_count: int) -> MarketInstance:
    """A compact random instance with generous-but-varied time windows.

    Hand-rolled (rather than reusing the trace generator) so hypothesis can
    shrink the seed space quickly and windows/locations vary more wildly than
    the calibrated generator allows.
    """
    rng = random.Random(seed)
    cost_model = MarketCostModel(
        TravelModel(HaversineEstimator(circuity=1.0), speed_kmh=SPEED_KMH, cost_per_km=COST_PER_KM)
    )

    def random_point() -> GeoPoint:
        return ANCHOR.offset_km(rng.uniform(-4.0, 4.0), rng.uniform(-4.0, 4.0))

    tasks = []
    for m in range(task_count):
        source = random_point()
        destination = random_point()
        distance = max(0.3, source.haversine_km(destination))
        duration = distance / SPEED_KMH * 3600.0
        start = rng.uniform(0.0, 6.0) * 3600.0
        window_pad = rng.uniform(1.0, 1.6)
        tasks.append(
            Task(
                task_id=f"t{m}",
                publish_ts=start - rng.uniform(300.0, 900.0),
                source=source,
                destination=destination,
                start_deadline_ts=start,
                end_deadline_ts=start + duration * window_pad + 60.0,
                price=rng.uniform(1.0, 3.0) + distance * rng.uniform(0.5, 1.2),
                distance_km=distance,
            )
        )

    drivers = []
    for n in range(driver_count):
        start = rng.uniform(0.0, 4.0) * 3600.0
        drivers.append(
            Driver(
                driver_id=f"d{n}",
                source=random_point(),
                destination=random_point(),
                start_ts=start,
                end_ts=start + rng.uniform(1.0, 5.0) * 3600.0,
            )
        )
    return MarketInstance.create(drivers=drivers, tasks=tasks, cost_model=cost_model)


market_params = st.tuples(
    st.integers(min_value=0, max_value=10_000),  # seed
    st.integers(min_value=3, max_value=14),      # tasks
    st.integers(min_value=1, max_value=5),       # drivers
)

SLOW_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


class TestSolverProperties:
    @given(market_params)
    @SLOW_SETTINGS
    def test_greedy_solution_is_always_feasible(self, params):
        seed, tasks, drivers = params
        instance = build_instance(seed, tasks, drivers)
        solution = greedy_assignment(instance)
        solution.validate()
        assert solution.total_value >= -1e-9

    @given(market_params)
    @SLOW_SETTINGS
    def test_bound_chain_holds(self, params):
        seed, tasks, drivers = params
        instance = build_instance(seed, tasks, drivers)
        greedy = greedy_assignment(instance).total_value
        exact = exact_optimum(instance).optimum
        lp = compute_upper_bound(instance)
        lagrangian = lagrangian_bound(instance, iterations=15, target_value=greedy).upper_bound
        assert greedy <= exact + 1e-6
        assert exact <= lp + 1e-6
        assert exact <= lagrangian + 1e-6

    @given(market_params)
    @SLOW_SETTINGS
    def test_theorem1_approximation_guarantee(self, params):
        seed, tasks, drivers = params
        instance = build_instance(seed, tasks, drivers)
        greedy = greedy_assignment(instance).total_value
        exact = exact_optimum(instance).optimum
        diameter = market_diameter(instance)
        assert greedy >= exact / (diameter + 1) - 1e-6

    @given(market_params)
    @SLOW_SETTINGS
    def test_exact_solution_validates_and_matches_reported_optimum(self, params):
        seed, tasks, drivers = params
        instance = build_instance(seed, tasks, drivers)
        result = exact_optimum(instance)
        result.solution.validate()
        assert result.solution.total_value == pytest.approx(result.optimum, rel=1e-6, abs=1e-6)

    @given(market_params)
    @SLOW_SETTINGS
    def test_online_outcomes_bounded_by_exact_optimum(self, params):
        seed, tasks, drivers = params
        instance = build_instance(seed, tasks, drivers)
        exact = exact_optimum(instance).optimum
        for dispatcher in (NearestDispatcher(seed=seed), MaxMarginDispatcher()):
            outcome = run_online(instance, dispatcher)
            assert outcome.total_value <= exact + 1e-6
            served = [m for r in outcome.plans for m in r.task_indices]
            assert len(served) == len(set(served))

    @given(market_params)
    @SLOW_SETTINGS
    def test_best_path_profit_consistent_with_path_evaluation(self, params):
        seed, tasks, drivers = params
        instance = build_instance(seed, tasks, drivers)
        for driver in instance.drivers:
            task_map = instance.task_map(driver.driver_id)
            result = best_path(task_map)
            assert is_feasible_path(task_map, result.path)
            if result.path:
                assert result.profit == pytest.approx(path_profit(task_map, result.path), rel=1e-9)


coordinate = st.tuples(
    st.floats(min_value=-89.0, max_value=89.0, allow_nan=False),
    st.floats(min_value=-179.0, max_value=179.0, allow_nan=False),
)

coordinate_lists = st.tuples(
    st.lists(coordinate, min_size=1, max_size=12),
    st.lists(coordinate, min_size=1, max_size=12),
)

BATCH_ESTIMATORS = (
    HaversineEstimator(),
    HaversineEstimator(circuity=1.0),
    EquirectangularEstimator(),
    ManhattanEstimator(),
)


class TestBatchGeoKernelParity:
    """The vectorised geo kernels must reproduce the scalar estimators
    everywhere — they feed the same candidate feasibility checks."""

    @given(coordinate_lists)
    @settings(max_examples=50, deadline=None)
    def test_cross_km_matches_scalar_estimators(self, coords):
        raw_a, raw_b = coords
        a = [GeoPoint(lat, lon) for lat, lon in raw_a]
        b = [GeoPoint(lat, lon) for lat, lon in raw_b]
        for estimator in BATCH_ESTIMATORS:
            matrix = estimator.cross_km(a, b)
            assert matrix.shape == (len(a), len(b))
            for i, origin in enumerate(a):
                for j, destination in enumerate(b):
                    assert matrix[i, j] == pytest.approx(
                        estimator.distance_km(origin, destination), abs=1e-9
                    )

    @given(st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_pairwise_km_matches_scalar_estimators(self, pairs):
        a = [GeoPoint(lat, lon) for (lat, lon), _ in pairs]
        b = [GeoPoint(lat, lon) for _, (lat, lon) in pairs]
        for estimator in BATCH_ESTIMATORS:
            batch = estimator.pairwise_km(a, b)
            for i in range(len(pairs)):
                assert batch[i] == pytest.approx(
                    estimator.distance_km(a[i], b[i]), abs=1e-9
                )

    @given(coordinate_lists)
    @settings(max_examples=25, deadline=None)
    def test_leg_matrix_matches_scalar_legs(self, coords):
        raw_a, raw_b = coords
        a = [GeoPoint(lat, lon) for lat, lon in raw_a]
        b = [GeoPoint(lat, lon) for lat, lon in raw_b]
        cost_model = MarketCostModel(
            TravelModel(HaversineEstimator(), speed_kmh=28.0, cost_per_km=0.11)
        )
        times, costs = cost_model.pairwise_leg_matrix(a, b)
        for i, origin in enumerate(a):
            for j, destination in enumerate(b):
                leg = cost_model.leg(origin, destination)
                # Times can reach ~1e6 s for near-antipodal pairs, where a
                # few ULPs exceed any fixed absolute tolerance — allow a
                # round-off-level relative term as well.
                assert times[i, j] == pytest.approx(leg.time_s, rel=1e-12, abs=1e-9)
                assert costs[i, j] == pytest.approx(leg.cost, rel=1e-12, abs=1e-9)


class TestSolutionAlgebraProperties:
    @given(market_params)
    @SLOW_SETTINGS
    def test_profit_decomposition(self, params):
        """For every driver plan, profit == sum(prices) - excess cost."""
        seed, tasks, drivers = params
        instance = build_instance(seed, tasks, drivers)
        solution = greedy_assignment(instance)
        for plan in solution.iter_nonempty_plans():
            task_map = instance.task_map(plan.driver_id)
            prices = sum(instance.tasks[m].price for m in plan.task_indices)
            excess = path_excess_cost(task_map, plan.task_indices)
            assert plan.profit == pytest.approx(prices - excess, rel=1e-9, abs=1e-9)

    @given(market_params)
    @SLOW_SETTINGS
    def test_total_value_equals_sum_of_plans(self, params):
        seed, tasks, drivers = params
        instance = build_instance(seed, tasks, drivers)
        solution = greedy_assignment(instance)
        rebuilt = MarketSolution.from_assignment(instance, solution.assignment())
        assert rebuilt.total_value == pytest.approx(solution.total_value, rel=1e-9, abs=1e-9)
        assert rebuilt.served_tasks() == solution.served_tasks()
