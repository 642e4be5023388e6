"""Tests for the synthetic Porto-like trace generator."""

import numpy as np
import pytest

from repro.geo import PORTO
from repro.trace import (
    DIURNAL_WEIGHTS,
    PortoLikeTraceGenerator,
    TraceConfig,
    generate_trace,
    tail_heaviness,
)


class TestTraceConfig:
    def test_defaults_match_paper_setup(self):
        cfg = TraceConfig()
        assert cfg.fleet_size == 442
        assert cfg.bounding_box == PORTO

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            TraceConfig(fleet_size=0)
        with pytest.raises(ValueError):
            TraceConfig(downtown_fraction=1.5)
        with pytest.raises(ValueError):
            TraceConfig(duration_min_s=0.0)
        with pytest.raises(ValueError):
            TraceConfig(speed_jitter=1.0)

    def test_diurnal_weights_cover_24_hours(self):
        assert len(DIURNAL_WEIGHTS) == 24
        assert all(w > 0 for w in DIURNAL_WEIGHTS)


class TestGeneration:
    def test_trip_count_and_sorting(self):
        trips = generate_trace(trip_count=200, seed=1)
        assert len(trips) == 200
        starts = [t.start_ts for t in trips]
        assert starts == sorted(starts)

    def test_determinism(self):
        a = generate_trace(trip_count=50, seed=7)
        b = generate_trace(trip_count=50, seed=7)
        assert [t.trip_id for t in a] == [t.trip_id for t in b]
        assert [t.start_ts for t in a] == [t.start_ts for t in b]
        assert [t.distance_km for t in a] == [t.distance_km for t in b]

    def test_different_seeds_differ(self):
        a = generate_trace(trip_count=50, seed=1)
        b = generate_trace(trip_count=50, seed=2)
        assert [t.start_ts for t in a] != [t.start_ts for t in b]

    def test_locations_inside_service_area(self):
        trips = generate_trace(trip_count=300, seed=2)
        for trip in trips:
            assert PORTO.contains(trip.origin)
            assert PORTO.contains(trip.destination)

    def test_durations_within_configured_bounds(self):
        cfg = TraceConfig()
        trips = generate_trace(trip_count=300, seed=3)
        for trip in trips:
            assert cfg.duration_min_s <= trip.duration_s <= cfg.duration_max_s

    def test_driver_ids_within_fleet(self):
        trips = generate_trace(trip_count=300, seed=4)
        fleet = {t.driver_id for t in trips}
        assert all(d.startswith("taxi-") for d in fleet)
        assert len(fleet) <= TraceConfig().fleet_size

    def test_day_index_shifts_timestamps(self):
        generator = PortoLikeTraceGenerator()
        day0 = generator.generate_day(0, trip_count=20)
        day1 = generator.generate_day(1, trip_count=20)
        assert all(t.start_ts < 86400.0 for t in day0)
        assert all(86400.0 <= t.start_ts < 2 * 86400.0 for t in day1)

    def test_invalid_arguments(self):
        generator = PortoLikeTraceGenerator()
        with pytest.raises(ValueError):
            generator.generate_day(-1)
        with pytest.raises(ValueError):
            generator.generate_day(0, trip_count=-5)


class TestMarginals:
    """The generator must reproduce the paper's Fig. 3 / Fig. 4 shapes."""

    @pytest.fixture(scope="class")
    def trips(self):
        return generate_trace(trip_count=4000, seed=11)

    def test_travel_time_is_heavy_tailed(self, trips):
        durations = [t.duration_min for t in trips]
        assert tail_heaviness(durations) > 3.0

    def test_travel_distance_is_heavy_tailed(self, trips):
        distances = [t.distance_km for t in trips]
        assert tail_heaviness(distances) > 3.0

    def test_median_duration_is_city_trip_scale(self, trips):
        median_min = np.median([t.duration_min for t in trips])
        assert 3.0 <= median_min <= 15.0

    def test_speeds_are_plausible(self, trips):
        speeds = np.array([t.average_speed_kmh for t in trips])
        assert speeds.min() > 5.0
        assert speeds.max() < 60.0

    def test_demand_peaks_during_daytime(self, trips):
        hours = np.array([(t.start_ts % 86400.0) // 3600.0 for t in trips])
        night = np.sum((hours >= 1) & (hours < 5))
        evening = np.sum((hours >= 17) & (hours < 21))
        assert evening > 2 * night
