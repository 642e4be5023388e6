"""Tests for repro.trace.cleaning."""

import pytest

from repro.geo import PORTO, GeoPoint
from repro.trace import (
    CleaningConfig,
    TripRecord,
    clean_trips,
    first_n_by_time,
    generate_trace,
)

A = GeoPoint(41.15, -8.61)
B = A.offset_km(0.0, 5.0)


def trip(trip_id, start=0.0, duration=600.0, distance=5.0, origin=A, destination=B):
    return TripRecord(trip_id, "d", start, start + duration, origin, destination, distance)


class TestCleanTrips:
    def test_good_trips_kept(self):
        trips = [trip(f"t{i}", start=i * 1000.0) for i in range(5)]
        kept, report = clean_trips(trips)
        assert len(kept) == 5
        assert report.kept == 5
        assert report.input_count == 5

    def test_duration_filter(self):
        trips = [trip("short", duration=10.0), trip("long", duration=4 * 3600.0), trip("ok")]
        kept, report = clean_trips(trips)
        assert [t.trip_id for t in kept] == ["ok"]
        assert report.dropped_duration == 2

    def test_distance_filter(self):
        trips = [trip("tiny", distance=0.05), trip("huge", distance=500.0), trip("ok")]
        kept, report = clean_trips(trips)
        assert [t.trip_id for t in kept] == ["ok"]
        assert report.dropped_distance == 2

    def test_speed_filter(self):
        # 50 km in 10 minutes = 300 km/h.
        trips = [trip("rocket", duration=600.0, distance=50.0), trip("ok")]
        kept, report = clean_trips(trips)
        assert [t.trip_id for t in kept] == ["ok"]
        assert report.dropped_speed == 1

    def test_bounding_box_filter(self):
        outside = GeoPoint(40.0, -8.61)
        trips = [trip("away", origin=outside), trip("ok")]
        kept, report = clean_trips(trips, CleaningConfig(bounding_box=PORTO))
        assert [t.trip_id for t in kept] == ["ok"]
        assert report.dropped_outside_area == 1

    def test_duplicate_filter(self):
        trips = [trip("same"), trip("same"), trip("other")]
        kept, report = clean_trips(trips)
        assert len(kept) == 2
        assert report.dropped_duplicate == 1

    def test_report_accounting_consistent(self):
        trips = [trip("a"), trip("b", duration=5.0), trip("a")]
        kept, report = clean_trips(trips)
        assert report.input_count == 3
        assert report.kept == len(kept)
        assert sum(
            [
                report.dropped_duration,
                report.dropped_distance,
                report.dropped_speed,
                report.dropped_outside_area,
                report.dropped_duplicate,
            ]
        ) == report.input_count - report.kept
        assert set(report.as_dict()) >= {"input_count", "kept"}

    def test_a_trip_is_counted_against_the_first_filter_that_rejects_it(self):
        # Too short and too far: the duration filter runs first.
        trips = [trip("both", duration=10.0, distance=500.0)]
        _, report = clean_trips(trips)
        assert report.dropped_duration == 1
        assert report.dropped_distance == 0

    def test_a_repeated_id_is_a_duplicate_even_when_its_first_copy_was_dropped(self):
        trips = [trip("same", duration=10.0), trip("same")]
        kept, report = clean_trips(trips)
        assert kept == []
        assert report.dropped_duration == 1
        assert report.dropped_duplicate == 1

    def test_bounds_are_inclusive(self):
        cfg = CleaningConfig()
        edge = trip(
            "edge",
            duration=cfg.min_duration_s,
            distance=cfg.min_distance_km,
        )
        kept, _ = clean_trips([edge], cfg)
        assert [t.trip_id for t in kept] == ["edge"]

    def test_bounding_box_filter_checks_the_destination_too(self):
        outside = GeoPoint(40.0, -8.61)
        trips = [trip("away", destination=outside, distance=5.0)]
        kept, report = clean_trips(trips, CleaningConfig(bounding_box=PORTO))
        assert kept == []
        assert report.dropped_outside_area == 1

    def test_invalid_distance_bounds(self):
        with pytest.raises(ValueError):
            CleaningConfig(min_distance_km=-1.0)
        with pytest.raises(ValueError):
            CleaningConfig(min_distance_km=5.0, max_distance_km=5.0)

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            CleaningConfig(min_duration_s=100.0, max_duration_s=50.0)
        with pytest.raises(ValueError):
            CleaningConfig(max_speed_kmh=0.0)

    def test_synthetic_trace_mostly_survives_cleaning(self):
        trips = generate_trace(trip_count=300, seed=21)
        kept, _ = clean_trips(trips, CleaningConfig(bounding_box=PORTO))
        assert len(kept) >= 0.9 * len(trips)


class TestSelection:
    def test_first_n_by_time(self):
        trips = [trip("late", start=100.0), trip("early", start=1.0), trip("mid", start=50.0)]
        assert [t.trip_id for t in first_n_by_time(trips, 2)] == ["early", "mid"]

    def test_first_n_by_time_breaks_ties_by_trip_id(self):
        trips = [trip("b", start=5.0), trip("a", start=5.0), trip("c", start=1.0)]
        assert [t.trip_id for t in first_n_by_time(trips, 3)] == ["c", "a", "b"]

    def test_first_n_by_time_count_beyond_length_returns_all(self):
        trips = [trip("x", start=2.0), trip("y", start=1.0)]
        assert [t.trip_id for t in first_n_by_time(trips, 10)] == ["y", "x"]
        assert first_n_by_time(trips, 0) == []

    def test_first_n_by_time_invalid(self):
        with pytest.raises(ValueError):
            first_n_by_time([], -1)
