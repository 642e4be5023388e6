"""Tests for repro.trace.records."""

import pytest

from repro.geo import GeoPoint
from repro.trace import TripRecord

A = GeoPoint(41.15, -8.61)
B = A.offset_km(0.0, 5.0)


def make_trip(trip_id="t1", driver_id="d1", start=0.0, duration=600.0, distance=5.0):
    return TripRecord(
        trip_id=trip_id,
        driver_id=driver_id,
        start_ts=start,
        end_ts=start + duration,
        origin=A,
        destination=B,
        distance_km=distance,
    )


class TestTripRecord:
    def test_basic_properties(self):
        trip = make_trip(duration=600.0, distance=5.0)
        assert trip.duration_s == 600.0
        assert trip.duration_min == pytest.approx(10.0)
        assert trip.average_speed_kmh == pytest.approx(30.0)

    def test_invalid_times_rejected(self):
        with pytest.raises(ValueError):
            TripRecord("t", "d", 100.0, 50.0, A, B, 1.0)

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            TripRecord("t", "d", 0.0, 10.0, A, B, -1.0)

    def test_zero_duration_speed_is_zero(self):
        trip = TripRecord("t", "d", 0.0, 0.0, A, B, 1.0)
        assert trip.average_speed_kmh == 0.0

    def test_from_polyline(self):
        polyline = [A, A.offset_km(0.0, 1.0), A.offset_km(0.0, 2.0)]
        trip = TripRecord.from_polyline("t", "d", start_ts=100.0, polyline=polyline)
        assert trip.duration_s == pytest.approx(30.0)  # 2 segments x 15 s
        assert trip.distance_km == pytest.approx(2.0, rel=0.01)
        assert trip.origin == polyline[0]
        assert trip.destination == polyline[-1]
        assert len(trip.polyline) == 3

    def test_from_polyline_honours_the_sample_interval(self):
        polyline = [A, A.offset_km(0.0, 1.0), A.offset_km(0.0, 2.0), A.offset_km(0.0, 3.0)]
        trip = TripRecord.from_polyline("t", "d", 50.0, polyline, sample_interval_s=30.0)
        assert trip.start_ts == 50.0
        assert trip.end_ts == pytest.approx(50.0 + 3 * 30.0)
        assert trip.average_speed_kmh == pytest.approx(120.0, rel=0.01)

    def test_from_polyline_requires_two_points(self):
        with pytest.raises(ValueError):
            TripRecord.from_polyline("t", "d", 0.0, [A])

