"""Tests for the Monte-Carlo driver-schedule generator."""

import pytest

from repro.geo import PORTO
from repro.trace import (
    DriverGenerationConfig,
    DriverScheduleGenerator,
    WorkingModel,
    generate_drivers,
    generate_trace,
)


class TestConfigValidation:
    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            DriverGenerationConfig(shift_hours_mean=0.0)
        with pytest.raises(ValueError):
            DriverGenerationConfig(shift_hours_jitter=-1.0)
        with pytest.raises(ValueError):
            DriverGenerationConfig(earliest_start_s=10.0, latest_start_s=5.0)
        with pytest.raises(ValueError):
            DriverGenerationConfig(downtown_fraction=-0.1)


class TestGenerate:
    def test_count_and_unique_ids(self):
        drivers = generate_drivers(30, seed=1)
        assert len(drivers) == 30
        assert len({d.driver_id for d in drivers}) == 30

    def test_negative_count_rejected(self):
        generator = DriverScheduleGenerator()
        with pytest.raises(ValueError):
            generator.generate(-1)

    def test_determinism(self):
        a = generate_drivers(10, seed=5)
        b = generate_drivers(10, seed=5)
        assert [(d.source, d.start_ts) for d in a] == [(d.source, d.start_ts) for d in b]

    def test_locations_inside_service_area(self):
        for driver in generate_drivers(100, seed=2):
            assert PORTO.contains(driver.source)
            assert PORTO.contains(driver.destination)

    def test_hitchhiking_model_has_distinct_endpoints(self):
        drivers = generate_drivers(50, working_model=WorkingModel.HITCHHIKING, seed=3)
        distinct = sum(1 for d in drivers if d.source != d.destination)
        assert distinct == 50

    def test_home_work_home_model_has_equal_endpoints(self):
        drivers = generate_drivers(50, working_model=WorkingModel.HOME_WORK_HOME, seed=3)
        assert all(d.source == d.destination for d in drivers)

    def test_shift_lengths_are_around_four_hours(self):
        drivers = generate_drivers(200, seed=4)
        mean_hours = sum(d.working_duration_s for d in drivers) / len(drivers) / 3600.0
        assert 2.5 <= mean_hours <= 5.5

    def test_working_windows_are_positive(self):
        for driver in generate_drivers(100, seed=6):
            assert driver.end_ts > driver.start_ts


class TestGenerateFromTrips:
    def test_windows_overlap_trip_span(self):
        trips = generate_trace(trip_count=100, seed=7)
        generator = DriverScheduleGenerator(DriverGenerationConfig(seed=8))
        drivers = generator.generate_from_trips(trips, count=40)
        assert len(drivers) == 40
        span_start = min(t.start_ts for t in trips)
        span_end = max(t.end_ts for t in trips)
        for driver in drivers:
            assert driver.start_ts >= span_start - 1e-6
            assert driver.start_ts <= span_end + 1e-6

    def test_default_count_matches_distinct_trace_drivers(self):
        trips = generate_trace(trip_count=60, seed=9)
        generator = DriverScheduleGenerator(DriverGenerationConfig(seed=10))
        drivers = generator.generate_from_trips(trips)
        assert len(drivers) == len({t.driver_id for t in trips})

    def test_empty_trips_falls_back_to_plain_generation(self):
        generator = DriverScheduleGenerator(DriverGenerationConfig(seed=11))
        assert generator.generate_from_trips([], count=5) != []
        assert len(generator.generate_from_trips([], count=5)) == 5

    def test_working_model_respected(self):
        trips = generate_trace(trip_count=40, seed=12)
        generator = DriverScheduleGenerator(
            DriverGenerationConfig(seed=13, working_model=WorkingModel.HOME_WORK_HOME)
        )
        drivers = generator.generate_from_trips(trips, count=10)
        assert all(d.source == d.destination for d in drivers)
