"""Tests for the market cost model."""

import numpy as np
import pytest

from repro.geo import GeoPoint, HaversineEstimator, TravelModel, haversine_km
from repro.market import MarketCostModel, Task

A = GeoPoint(41.15, -8.61)
B = A.offset_km(0.0, 6.0)
C = A.offset_km(3.0, 0.0)


def flat_cost_model(speed=30.0, cost_per_km=0.1):
    return MarketCostModel(
        TravelModel(HaversineEstimator(circuity=1.0), speed_kmh=speed, cost_per_km=cost_per_km)
    )


def make_task(distance_km=None):
    return Task(
        task_id="m",
        publish_ts=0.0,
        source=A,
        destination=B,
        start_deadline_ts=100.0,
        end_deadline_ts=2000.0,
        price=5.0,
        distance_km=distance_km,
    )


class TestScalarLegs:
    def test_leg_time_and_cost(self):
        model = flat_cost_model()
        leg = model.leg(A, B)
        distance = haversine_km(A, B)
        assert leg.time_s == pytest.approx(distance / 30.0 * 3600.0, rel=1e-9)
        assert leg.cost == pytest.approx(distance * 0.1, rel=1e-9)

    def test_driver_direct_leg_matches_leg(self):
        model = flat_cost_model()
        assert model.driver_direct_leg(A, B) == model.leg(A, B)

    def test_task_distance_prefers_trace_value(self):
        model = flat_cost_model()
        task = make_task(distance_km=7.5)
        assert model.task_distance_km(task) == 7.5
        assert model.task_cost(task) == pytest.approx(0.75)
        assert model.task_duration_s(task) == pytest.approx(7.5 / 30.0 * 3600.0)

    def test_task_distance_falls_back_to_estimate(self):
        model = flat_cost_model()
        task = make_task(distance_km=None)
        assert model.task_distance_km(task) == pytest.approx(haversine_km(A, B), rel=1e-9)

    def test_default_model_used_when_none_given(self):
        model = MarketCostModel()
        assert model.travel_model.speed_kmh == pytest.approx(30.0)


class TestVectorisedLegs:
    def test_pairwise_matrix_matches_scalar(self):
        model = flat_cost_model()
        origins = [A, B]
        destinations = [B, C, A]
        times, costs = model.pairwise_leg_matrix(origins, destinations)
        assert times.shape == (2, 3)
        for i, origin in enumerate(origins):
            for j, destination in enumerate(destinations):
                scalar = model.leg(origin, destination)
                assert times[i, j] == pytest.approx(scalar.time_s, rel=2e-3)
                assert costs[i, j] == pytest.approx(scalar.cost, rel=2e-3)

    def test_pairwise_matrix_applies_circuity(self):
        curvy = MarketCostModel(
            TravelModel(HaversineEstimator(circuity=1.5), speed_kmh=30.0, cost_per_km=0.1)
        )
        flat = flat_cost_model()
        t_curvy, _ = curvy.pairwise_leg_matrix([A], [B])
        t_flat, _ = flat.pairwise_leg_matrix([A], [B])
        assert t_curvy[0, 0] == pytest.approx(1.5 * t_flat[0, 0], rel=1e-9)

    def test_empty_inputs(self):
        model = flat_cost_model()
        times, costs = model.pairwise_leg_matrix([], [A])
        assert times.shape == (0, 1)
        assert costs.shape == (0, 1)

    def test_diagonal_is_zero(self):
        model = flat_cost_model()
        times, costs = model.pairwise_leg_matrix([A, B], [A, B])
        assert times[0, 0] == pytest.approx(0.0, abs=1e-9)
        assert costs[1, 1] == pytest.approx(0.0, abs=1e-9)
