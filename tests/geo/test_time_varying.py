"""Tests for the travel model's time profile (repro.geo.distance)."""

import math
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro.geo
import repro.geo.distance
from repro.geo import GeoPoint, HaversineEstimator, TravelModel

A = GeoPoint(41.15, -8.61)
B = A.offset_km(3.0, 4.0)

BASE = TravelModel(HaversineEstimator(circuity=1.0), speed_kmh=30.0, cost_per_km=0.12)


def rush_hour_model() -> TravelModel:
    """Hour-long windows: free-flow, rush hour at 60% speed + 20% cost, free."""
    return replace(
        BASE,
        window_s=3600.0,
        speed_factors=(1.0, 0.6, 1.0),
        cost_factors=(1.0, 1.2, 1.0),
    )


class TestValidation:
    def test_invalid_windows_rejected(self):
        with pytest.raises(ValueError):
            replace(BASE, window_s=0.0)
        with pytest.raises(ValueError):
            replace(BASE, window_s=float("inf"))
        with pytest.raises(ValueError):
            replace(BASE, origin_ts=float("nan"))
        with pytest.raises(ValueError):
            replace(BASE, speed_factors=(), cost_factors=())

    def test_mismatched_profile_lengths_rejected(self):
        with pytest.raises(ValueError):
            replace(
                BASE, speed_factors=(1.0, 0.5), cost_factors=(1.0,)
            )

    def test_invalid_factors_rejected(self):
        for bad_speed in (0.0, -0.5, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                replace(
                    BASE, speed_factors=(bad_speed,), cost_factors=(1.0,)
                )
        for bad_cost in (-0.1, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                replace(
                    BASE, speed_factors=(1.0,), cost_factors=(bad_cost,)
                )

    def test_non_finite_timestamp_rejected(self):
        model = rush_hour_model()
        with pytest.raises(ValueError):
            model.window_index(float("nan"))
        with pytest.raises(ValueError):
            model.rates_at(float("inf"))


class TestScaledValidation:
    """TravelModel.scaled must reject degenerate factors (zero, negative,
    NaN, inf) instead of silently building a broken model."""

    def test_zero_and_negative_speed_factor_raise(self):
        with pytest.raises(ValueError):
            BASE.scaled(speed_factor=0.0)
        with pytest.raises(ValueError):
            BASE.scaled(speed_factor=-1.0)

    def test_non_finite_factors_raise(self):
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError):
                BASE.scaled(speed_factor=bad)
            with pytest.raises(ValueError):
                BASE.scaled(cost_factor=bad)

    def test_negative_cost_factor_raises(self):
        with pytest.raises(ValueError):
            BASE.scaled(cost_factor=-0.01)

    def test_constructor_rejects_non_finite_rates(self):
        with pytest.raises(ValueError):
            TravelModel(HaversineEstimator(), speed_kmh=float("nan"))
        with pytest.raises(ValueError):
            TravelModel(HaversineEstimator(), speed_kmh=30.0, cost_per_km=float("inf"))

    def test_valid_scaling_still_works(self):
        scaled = BASE.scaled(speed_factor=0.5, cost_factor=2.0)
        assert scaled.speed_kmh == pytest.approx(15.0)
        assert scaled.cost_per_km == pytest.approx(0.24)


class TestWindowIndexing:
    def test_window_boundaries(self):
        model = rush_hour_model()
        assert model.window_index(0.0) == 0
        assert model.window_index(3599.999) == 0
        assert model.window_index(3600.0) == 1
        assert model.window_index(7200.0) == 2

    def test_clamps_outside_profile(self):
        model = rush_hour_model()
        assert model.window_index(-1e6) == 0
        assert model.window_index(1e9) == 2

    def test_origin_shift(self):
        shifted = replace(
            BASE, window_s=60.0, speed_factors=(1.0, 0.5),
            cost_factors=(1.0, 1.0), origin_ts=1000.0,
        )
        assert shifted.window_index(999.0) == 0
        assert shifted.window_index(1059.0) == 0
        assert shifted.window_index(1060.0) == 1

    def test_rates_at(self):
        model = rush_hour_model()
        assert model.rates_at(0.0) == (30.0, 0.12)
        speed, cost = model.rates_at(3600.0)
        assert speed == pytest.approx(18.0)
        assert cost == pytest.approx(0.144)


class TestFlatIdentity:
    """Parity contract 18: an all-ones profile is the one-window model, bit
    for bit."""

    def test_default_profile_is_flat(self):
        assert BASE.is_flat
        assert BASE.window_s == 3600.0
        assert BASE.speed_factors == (1.0,) and BASE.cost_factors == (1.0,)
        assert BASE.origin_ts == 0.0
        assert not rush_hour_model().is_flat

    def test_flat_model_at_any_time_is_itself(self):
        flat = replace(BASE, speed_factors=(1.0, 1.0), cost_factors=(1.0, 1.0))
        assert flat.is_flat
        assert flat.at(12345.6) is flat
        assert BASE.at(-1e9) is BASE

    def test_windows_resolve_to_time_invariant_models(self):
        model = rush_hour_model()
        assert model.at(0.0) == BASE
        assert model.at(7200.0) == BASE
        jam = model.at(3600.0)
        assert jam.is_flat and jam != BASE
        assert (jam.speed_kmh, jam.cost_per_km) == model.rates_at(3600.0)

    def test_flat_conversions_bit_identical(self):
        flat = replace(
            BASE, window_s=900.0, speed_factors=(1.0,) * 8, cost_factors=(1.0,) * 8
        )
        distance = BASE.distance_km(A, B)
        for ts in (None, 0.0, 1800.0, 1e7):
            assert flat.time_for_distance_s(distance, ts) == BASE.time_for_distance_s(distance)
            assert flat.cost_for_distance(distance, ts) == BASE.cost_for_distance(distance)
            assert flat.rates_at(ts or 0.0) == (BASE.speed_kmh, BASE.cost_per_km)
        assert flat.max_speed_kmh == BASE.speed_kmh


class TestTimedConversions:
    def test_rush_hour_slows_and_costs_more(self):
        model = rush_hour_model()
        distance = model.distance_km(A, B)
        free = model.time_for_distance_s(distance, 0.0)
        jam = model.time_for_distance_s(distance, 3600.0)
        assert jam == pytest.approx(free / 0.6)
        assert model.cost_for_distance(distance, 3600.0) == pytest.approx(
            model.cost_for_distance(distance, 0.0) * 1.2
        )

    def test_untimestamped_calls_use_base_rates(self):
        model = rush_hour_model()
        assert model.travel_time_s(A, B) == BASE.travel_time_s(A, B)
        assert model.speed_kmh == BASE.speed_kmh
        assert model.cost_per_km == BASE.cost_per_km
        assert model.estimator is BASE.estimator

    def test_max_speed_over_profile(self):
        model = replace(
            BASE, speed_factors=(0.5, 1.4, 1.0), cost_factors=(1.0, 1.0, 1.0)
        )
        assert model.max_speed_kmh == pytest.approx(42.0)

    def test_scaled_keeps_profile(self):
        scaled = rush_hour_model().scaled(speed_factor=2.0)
        assert scaled.speed_kmh == pytest.approx(60.0)
        assert scaled.speed_factors == (1.0, 0.6, 1.0)
        assert scaled.cost_factors == (1.0, 1.2, 1.0)
        assert scaled.window_s == 3600.0
        assert scaled.rates_at(3600.0)[0] == pytest.approx(36.0)

    def test_factors_are_stored_as_float_tuples(self):
        model = replace(BASE, speed_factors=[1, 0.5], cost_factors=[1, 2])
        assert model.speed_factors == (1.0, 0.5)
        assert all(type(f) is float for f in model.speed_factors + model.cost_factors)


@given(
    st.floats(min_value=-1e6, max_value=1e7, allow_nan=False, allow_infinity=False),
    st.floats(min_value=0.1, max_value=50.0),
)
def test_rates_always_match_selected_window(ts, distance_km):
    """rates_at, at and the timestamped conversions agree for any finite ts."""
    model = rush_hour_model()
    speed, cost = model.rates_at(ts)
    resolved = model.at(ts)
    assert resolved.speed_kmh == speed
    assert resolved.cost_per_km == cost
    assert model.time_for_distance_s(distance_km, ts) == resolved.time_for_distance_s(
        distance_km
    )
    assert model.cost_for_distance(distance_km, ts) == resolved.cost_for_distance(
        distance_km
    )
    assert speed > 0.0 and math.isfinite(speed)


class TestOneTravelModel:
    """The time profile lives on :class:`TravelModel`; the wrapper class and
    its constructor helper are gone."""

    @pytest.mark.parametrize("name", ["TimeVaryingTravelModel", "time_varying_model"])
    def test_removed_names_do_not_import(self, name):
        with pytest.raises(ImportError):
            exec(f"from repro.geo import {name}", {})
        assert not hasattr(repro.geo, name)
        assert not hasattr(repro.geo.distance, name)
