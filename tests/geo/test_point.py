"""Tests for repro.geo.point."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo import (
    GeoPoint,
    centroid,
    equirectangular_km,
    haversine_km,
    manhattan_km,
    polyline_length_km,
)

PORTO_CENTER = GeoPoint(41.15, -8.61)
LISBON = GeoPoint(38.72, -9.14)


class TestGeoPoint:
    def test_valid_construction(self):
        p = GeoPoint(41.15, -8.61)
        assert p.lat == 41.15
        assert p.lon == -8.61

    def test_latitude_out_of_range(self):
        with pytest.raises(ValueError):
            GeoPoint(91.0, 0.0)
        with pytest.raises(ValueError):
            GeoPoint(-90.5, 0.0)

    def test_longitude_out_of_range(self):
        with pytest.raises(ValueError):
            GeoPoint(0.0, 180.5)
        with pytest.raises(ValueError):
            GeoPoint(0.0, -181.0)

    def test_is_hashable_and_equal_by_value(self):
        assert GeoPoint(1.0, 2.0) == GeoPoint(1.0, 2.0)
        assert len({GeoPoint(1.0, 2.0), GeoPoint(1.0, 2.0)}) == 1

    def test_midpoint(self):
        mid = GeoPoint(0.0, 0.0).midpoint(GeoPoint(2.0, 4.0))
        assert mid == GeoPoint(1.0, 2.0)

    def test_offset_km_roundtrip_distance(self):
        p = PORTO_CENTER.offset_km(3.0, 4.0)
        assert haversine_km(PORTO_CENTER, p) == pytest.approx(5.0, rel=0.01)

    def test_offset_km_pole_rejected(self):
        with pytest.raises(ValueError):
            GeoPoint(90.0, 0.0).offset_km(0.0, 1.0)


class TestDistances:
    def test_zero_distance(self):
        assert haversine_km(PORTO_CENTER, PORTO_CENTER) == 0.0
        assert equirectangular_km(PORTO_CENTER, PORTO_CENTER) == 0.0

    def test_porto_lisbon_haversine(self):
        # Known geodesic distance Porto <-> Lisbon is roughly 274 km.
        assert haversine_km(PORTO_CENTER, LISBON) == pytest.approx(274.0, rel=0.03)

    def test_equirectangular_close_to_haversine_at_city_scale(self):
        a = PORTO_CENTER
        b = PORTO_CENTER.offset_km(4.0, -7.0)
        assert equirectangular_km(a, b) == pytest.approx(haversine_km(a, b), rel=1e-3)

    def test_manhattan_at_least_straight_line(self):
        a = PORTO_CENTER
        b = PORTO_CENTER.offset_km(3.0, 4.0)
        assert manhattan_km(a, b) >= equirectangular_km(a, b) - 1e-9

    def test_manhattan_equals_sum_of_legs(self):
        a = PORTO_CENTER
        b = PORTO_CENTER.offset_km(3.0, 4.0)
        assert manhattan_km(a, b) == pytest.approx(7.0, rel=0.01)

    def test_symmetry(self):
        a, b = PORTO_CENTER, LISBON
        assert haversine_km(a, b) == pytest.approx(haversine_km(b, a))
        assert equirectangular_km(a, b) == pytest.approx(equirectangular_km(b, a))


class TestAggregates:
    def test_centroid_of_single_point(self):
        assert centroid([PORTO_CENTER]) == PORTO_CENTER

    def test_centroid_of_two_points(self):
        c = centroid([GeoPoint(0.0, 0.0), GeoPoint(2.0, 2.0)])
        assert c == GeoPoint(1.0, 1.0)

    def test_centroid_empty_raises(self):
        with pytest.raises(ValueError):
            centroid([])

    def test_polyline_length_short(self):
        points = [PORTO_CENTER, PORTO_CENTER.offset_km(0.0, 1.0), PORTO_CENTER.offset_km(0.0, 2.0)]
        assert polyline_length_km(points) == pytest.approx(2.0, rel=0.01)

    def test_polyline_length_degenerate(self):
        assert polyline_length_km([]) == 0.0
        assert polyline_length_km([PORTO_CENTER]) == 0.0


coordinate_points = st.builds(
    GeoPoint,
    st.floats(min_value=-80.0, max_value=80.0),
    st.floats(min_value=-179.0, max_value=179.0),
)


class TestDistanceProperties:
    @given(coordinate_points, coordinate_points)
    @settings(max_examples=80, deadline=None)
    def test_haversine_non_negative_and_symmetric(self, a, b):
        d1 = haversine_km(a, b)
        d2 = haversine_km(b, a)
        assert d1 >= 0.0
        assert d1 == pytest.approx(d2, rel=1e-9, abs=1e-9)

    @given(coordinate_points, coordinate_points, coordinate_points)
    @settings(max_examples=60, deadline=None)
    def test_haversine_triangle_inequality(self, a, b, c):
        assert haversine_km(a, c) <= haversine_km(a, b) + haversine_km(b, c) + 1e-6

    @given(coordinate_points)
    @settings(max_examples=60, deadline=None)
    def test_identity_of_indiscernibles(self, a):
        assert haversine_km(a, a) == 0.0

    @given(
        st.floats(min_value=-5.0, max_value=5.0),
        st.floats(min_value=-5.0, max_value=5.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_offset_distance_matches_euclidean(self, north, east):
        p = PORTO_CENTER.offset_km(north, east)
        expected = math.hypot(north, east)
        assert haversine_km(PORTO_CENTER, p) == pytest.approx(expected, rel=0.02, abs=1e-6)
