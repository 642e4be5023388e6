"""End-to-end integration tests across the whole pipeline.

These follow the full paper workflow: synthetic trace -> cleaning -> pricing
-> market instance -> offline/online solvers -> bounds -> metrics, plus the
distributed mode and the public package surface.
"""

import pytest

import repro
from repro import (
    DistributedCoordinator,
    MaxMarginDispatcher,
    NearestDispatcher,
    OnlineSimulator,
    SpatialPartitioner,
    WorkingModel,
)
from repro.analysis import BoundKind, PerformanceRatio, compute_upper_bound
from repro.pricing import LinearPricing, ProportionalWtp, SurgeConfig, SurgeEngine, SurgePricing
from repro.trace import CleaningConfig, clean_trips

from .graph_oracle import build_market_graph


@pytest.fixture(scope="module")
def market():
    trips = repro.generate_trace(trip_count=80, seed=71)
    cleaned, _ = clean_trips(trips, CleaningConfig(bounding_box=repro.PORTO))
    drivers = repro.generate_drivers(count=18, seed=72)
    return repro.market_from_trace(cleaned, drivers)


class TestPublicApi:
    def test_version_and_all_exports_resolve(self):
        assert repro.__version__
        for name in repro.__all__:
            assert hasattr(repro, name), f"missing export {name}"

    def test_quickstart_docstring_flow(self):
        trips = repro.generate_trace(trip_count=40, seed=1)
        drivers = repro.generate_drivers(count=8, seed=2)
        market = repro.market_from_trace(trips, drivers)
        solution = repro.greedy_assignment(market)
        solution.validate()
        assert 0.0 <= solution.serve_rate <= 1.0


class TestFullPipeline:
    def test_offline_vs_online_comparison(self, market):
        greedy = repro.greedy_assignment(market)
        greedy.validate()
        max_margin = OnlineSimulator(market, MaxMarginDispatcher()).run()
        nearest = OnlineSimulator(market, NearestDispatcher()).run()

        bound = compute_upper_bound(market, BoundKind.LP_RELAXATION)
        for achieved in (greedy.total_value, max_margin.total_value, nearest.total_value):
            ratio = PerformanceRatio("alg", achieved, bound, BoundKind.LP_RELAXATION)
            assert ratio.ratio >= 1.0 - 1e-6

        # The offline algorithm with full information should beat the myopic
        # nearest-driver rule on this workload.
        assert greedy.total_value >= nearest.total_value - 1e-6

    def test_lagrangian_bound_usable_at_scale(self, market):
        greedy_value = repro.greedy_assignment(market).total_value
        bound = repro.lagrangian_bound(market, iterations=25, target_value=greedy_value)
        assert bound.upper_bound >= greedy_value - 1e-6

    def test_distributed_mode_end_to_end(self, market):
        coordinator = DistributedCoordinator(
            SpatialPartitioner(repro.PORTO, 2, 2),
            solver_name="greedy",
            executor="process",
            max_workers=2,
        )
        result = coordinator.solve(market)
        result.solution.validate()
        assert result.report.shard_count == 4
        global_value = repro.greedy_assignment(market).total_value
        assert result.solution.total_value <= global_value + 1e-6

    def test_surge_pricing_pipeline(self):
        """Price a day of trips with a dynamic surge engine fed by the trace."""
        trips = repro.generate_trace(trip_count=60, seed=73)
        engine = SurgeEngine(SurgeConfig(sensitivity=0.8))
        for trip in trips:
            engine.record_demand(trip.origin, trip.start_ts)
        for trip in trips[::3]:
            engine.record_supply(trip.origin, trip.start_ts)
        policy = SurgePricing(engine=engine)
        tasks = repro.tasks_from_trips(trips, pricing=policy)
        base_tasks = repro.tasks_from_trips(trips, pricing=LinearPricing())
        assert len(tasks) == len(trips)
        # Surge never prices below the base fare and raises at least some fares.
        assert all(t.price >= b.price - 1e-9 for t, b in zip(tasks, base_tasks))
        assert any(t.price > b.price + 1e-9 for t, b in zip(tasks, base_tasks))

    def test_social_welfare_objective_with_wtp(self):
        trips = repro.generate_trace(trip_count=50, seed=74)
        drivers = repro.generate_drivers(count=10, seed=75)
        market = repro.market_from_trace(trips, drivers, wtp_model=ProportionalWtp(0.4))
        profit_solution = repro.greedy_assignment(market, objective=repro.Objective.DRIVERS_PROFIT)
        welfare_solution = repro.greedy_assignment(market, objective=repro.Objective.SOCIAL_WELFARE)
        profit_solution.validate()
        welfare_solution.validate()
        assert welfare_solution.total_value >= profit_solution.total_value - 1e-6

    def test_home_work_home_market(self):
        trips = repro.generate_trace(trip_count=60, seed=76)
        drivers = repro.generate_drivers(
            count=12, working_model=WorkingModel.HOME_WORK_HOME, seed=77
        )
        market = repro.market_from_trace(trips, drivers)
        solution = repro.greedy_assignment(market)
        solution.validate()
        assert all(d.is_home_work_home for d in market.drivers)

    def test_market_diameter_is_reported(self, market):
        diameter = repro.market_diameter(market)
        assert diameter >= 1
        graph = build_market_graph(market)
        assert graph.number_of_nodes() >= market.driver_count * 2
