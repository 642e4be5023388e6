"""Tests for repro.geo.distance."""

import pytest

from repro.geo import (
    EquirectangularEstimator,
    GeoPoint,
    HaversineEstimator,
    ManhattanEstimator,
    TravelModel,
    default_travel_model,
    haversine_km,
)

A = GeoPoint(41.15, -8.61)
B = A.offset_km(3.0, 4.0)  # 5 km crow-fly


class TestEstimators:
    def test_haversine_estimator_applies_circuity(self):
        plain = HaversineEstimator(circuity=1.0)
        scaled = HaversineEstimator(circuity=1.3)
        assert scaled.distance_km(A, B) == pytest.approx(1.3 * plain.distance_km(A, B))

    def test_haversine_estimator_default_matches_haversine_times_circuity(self):
        est = HaversineEstimator()
        assert est.distance_km(A, B) == pytest.approx(1.3 * haversine_km(A, B), rel=1e-9)

    def test_circuity_below_one_rejected(self):
        with pytest.raises(ValueError):
            HaversineEstimator(circuity=0.9)
        with pytest.raises(ValueError):
            EquirectangularEstimator(circuity=0.5)

    def test_equirectangular_close_to_haversine(self):
        h = HaversineEstimator(circuity=1.0).distance_km(A, B)
        e = EquirectangularEstimator(circuity=1.0).distance_km(A, B)
        assert e == pytest.approx(h, rel=1e-3)

    def test_manhattan_estimator_exceeds_straight_line(self):
        m = ManhattanEstimator().distance_km(A, B)
        assert m == pytest.approx(7.0, rel=0.02)
        assert m >= haversine_km(A, B)

    def test_estimator_is_callable(self):
        est = HaversineEstimator()
        assert est(A, B) == est.distance_km(A, B)


class TestTravelModel:
    def test_time_and_cost_scaling(self):
        model = TravelModel(HaversineEstimator(circuity=1.0), speed_kmh=30.0, cost_per_km=0.12)
        assert model.time_for_distance_s(30.0) == pytest.approx(3600.0)
        assert model.cost_for_distance(10.0) == pytest.approx(1.2)

    def test_travel_time_uses_estimator(self):
        model = TravelModel(HaversineEstimator(circuity=1.0), speed_kmh=30.0)
        expected = haversine_km(A, B) / 30.0 * 3600.0
        assert model.travel_time_s(A, B) == pytest.approx(expected, rel=1e-9)

    def test_negative_distance_rejected(self):
        model = default_travel_model()
        with pytest.raises(ValueError):
            model.time_for_distance_s(-1.0)
        with pytest.raises(ValueError):
            model.cost_for_distance(-0.1)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            TravelModel(HaversineEstimator(), speed_kmh=0.0)
        with pytest.raises(ValueError):
            TravelModel(HaversineEstimator(), speed_kmh=30.0, cost_per_km=-0.1)

    def test_default_travel_model_parameters(self):
        model = default_travel_model()
        assert model.speed_kmh == pytest.approx(30.0)
        assert model.cost_per_km == pytest.approx(0.12)
        assert isinstance(model.estimator, HaversineEstimator)
