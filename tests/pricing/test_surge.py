"""Tests for the surge-pricing engine."""

import math

import pytest

from repro.geo import PORTO, GeoPoint
from repro.pricing import (
    FareSchedule,
    LinearPricing,
    RideQuote,
    SurgeConfig,
    SurgeEngine,
    SurgePricing,
)

DOWNTOWN = PORTO.center
SUBURB = GeoPoint(PORTO.south + 0.005, PORTO.west + 0.005)


def quote_at(location, ts=1000.0):
    return RideQuote(
        origin=location,
        destination=PORTO.center,
        distance_km=3.0,
        duration_s=500.0,
        request_ts=ts,
    )


class TestSurgeConfig:
    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            SurgeConfig(zone_rows=0)
        with pytest.raises(ValueError):
            SurgeConfig(window_s=0.0)
        with pytest.raises(ValueError):
            SurgeConfig(sensitivity=-1.0)
        with pytest.raises(ValueError):
            SurgeConfig(min_multiplier=2.0, max_multiplier=1.0)


class TestSurgeEngine:
    def test_no_demand_means_no_surge(self):
        engine = SurgeEngine()
        assert engine.multiplier(DOWNTOWN, 0.0) == pytest.approx(1.0)

    def test_balanced_market_has_no_surge(self):
        engine = SurgeEngine()
        engine.record_demand(DOWNTOWN, 100.0, count=5)
        engine.record_supply(DOWNTOWN, 100.0, count=5)
        assert engine.multiplier(DOWNTOWN, 100.0) == pytest.approx(1.0)

    def test_excess_demand_raises_multiplier(self):
        engine = SurgeEngine(SurgeConfig(sensitivity=0.5))
        engine.record_demand(DOWNTOWN, 100.0, count=30)
        engine.record_supply(DOWNTOWN, 100.0, count=10)
        # imbalance = 3, alpha = 1 + 0.5 * (3 - 1) = 2.0
        assert engine.multiplier(DOWNTOWN, 100.0) == pytest.approx(2.0)

    def test_zero_supply_hits_cap(self):
        engine = SurgeEngine(SurgeConfig(max_multiplier=2.5))
        engine.record_demand(DOWNTOWN, 100.0, count=3)
        assert engine.multiplier(DOWNTOWN, 100.0) == pytest.approx(2.5)

    def test_multiplier_clipped_to_max(self):
        engine = SurgeEngine(SurgeConfig(sensitivity=10.0, max_multiplier=3.0))
        engine.record_demand(DOWNTOWN, 100.0, count=100)
        engine.record_supply(DOWNTOWN, 100.0, count=1)
        assert engine.multiplier(DOWNTOWN, 100.0) == pytest.approx(3.0)

    def test_multiplier_quantised(self):
        engine = SurgeEngine(SurgeConfig(sensitivity=0.37, quantum=0.1))
        engine.record_demand(DOWNTOWN, 0.0, count=7)
        engine.record_supply(DOWNTOWN, 0.0, count=3)
        value = engine.multiplier(DOWNTOWN, 0.0)
        assert value == pytest.approx(round(value, 1))

    def test_zero_quantum_leaves_the_multiplier_unrounded(self):
        engine = SurgeEngine(SurgeConfig(sensitivity=0.5, quantum=0.0))
        engine.record_demand(DOWNTOWN, 0.0, count=4)
        engine.record_supply(DOWNTOWN, 0.0, count=3)
        # alpha = 1 + 0.5 * (4/3 - 1) = 7/6, off every 0.1 step.
        assert engine.multiplier(DOWNTOWN, 0.0) == pytest.approx(7.0 / 6.0, abs=1e-12)

    def test_time_windows_are_half_open(self):
        engine = SurgeEngine(SurgeConfig(window_s=900.0))
        engine.record_demand(DOWNTOWN, 0.0, count=9)
        assert engine.multiplier(DOWNTOWN, 899.9) > 1.0
        assert engine.multiplier(DOWNTOWN, 900.0) == pytest.approx(1.0)

    def test_surge_is_local_to_zone(self):
        engine = SurgeEngine()
        engine.record_demand(DOWNTOWN, 100.0, count=50)
        engine.record_supply(DOWNTOWN, 100.0, count=5)
        assert engine.multiplier(DOWNTOWN, 100.0) > 1.0
        assert engine.multiplier(SUBURB, 100.0) == pytest.approx(1.0)
        assert engine.zone_of(DOWNTOWN) != engine.zone_of(SUBURB)

    def test_surge_is_local_to_time_window(self):
        engine = SurgeEngine(SurgeConfig(window_s=900.0))
        engine.record_demand(DOWNTOWN, 100.0, count=50)
        engine.record_supply(DOWNTOWN, 100.0, count=5)
        assert engine.multiplier(DOWNTOWN, 100.0) > 1.0
        assert engine.multiplier(DOWNTOWN, 100.0 + 3 * 900.0) == pytest.approx(1.0)

    def test_imbalance_diagnostics(self):
        engine = SurgeEngine()
        assert engine.imbalance(DOWNTOWN, 0.0) == 0.0
        engine.record_demand(DOWNTOWN, 0.0, count=4)
        assert math.isinf(engine.imbalance(DOWNTOWN, 0.0))
        engine.record_supply(DOWNTOWN, 0.0, count=2)
        assert engine.imbalance(DOWNTOWN, 0.0) == pytest.approx(2.0)

    def test_negative_counts_rejected(self):
        engine = SurgeEngine()
        with pytest.raises(ValueError):
            engine.record_demand(DOWNTOWN, 0.0, count=-1)
        with pytest.raises(ValueError):
            engine.record_supply(DOWNTOWN, 0.0, count=-1)


class TestSurgePricing:
    def test_price_uses_engine_multiplier(self):
        engine = SurgeEngine(SurgeConfig(sensitivity=0.5))
        engine.record_demand(DOWNTOWN, 100.0, count=30)
        engine.record_supply(DOWNTOWN, 100.0, count=10)
        schedule = FareSchedule()
        policy = SurgePricing(engine=engine, schedule=schedule)
        q = quote_at(DOWNTOWN, ts=100.0)
        base = LinearPricing(schedule=schedule).price(q)
        assert policy.surge_multiplier(q) == pytest.approx(2.0)
        assert policy.price(q) == pytest.approx(2.0 * base)

    def test_unsurged_zone_prices_at_base(self):
        engine = SurgeEngine()
        schedule = FareSchedule()
        policy = SurgePricing(engine=engine, schedule=schedule)
        q = quote_at(SUBURB)
        assert policy.price(q) == pytest.approx(LinearPricing(schedule=schedule).price(q))
