"""Tests for repro.geo.region."""

import random

import pytest

from repro.geo import BEIJING, NYC, PORTO, BoundingBox, GeoPoint


class TestBoundingBoxConstruction:
    def test_invalid_latitude_order(self):
        with pytest.raises(ValueError):
            BoundingBox(south=2.0, west=0.0, north=1.0, east=1.0)

    def test_invalid_longitude_order(self):
        with pytest.raises(ValueError):
            BoundingBox(south=0.0, west=5.0, north=1.0, east=4.0)

    def test_center(self):
        box = BoundingBox(south=0.0, west=0.0, north=2.0, east=4.0)
        assert box.center == GeoPoint(1.0, 2.0)


class TestContainsAndClamp:
    def test_contains_center_and_border(self):
        assert PORTO.contains(PORTO.center)
        assert PORTO.contains(GeoPoint(PORTO.south, PORTO.west))
        assert PORTO.contains(GeoPoint(PORTO.north, PORTO.east))

    def test_does_not_contain_outside_point(self):
        assert not PORTO.contains(GeoPoint(40.0, -8.6))

    def test_clamp_moves_point_inside(self):
        outside = GeoPoint(45.0, -8.6)
        clamped = PORTO.clamp(outside)
        assert PORTO.contains(clamped)
        assert clamped.lat == PORTO.north

    def test_clamp_keeps_inside_point(self):
        inside = PORTO.center
        assert PORTO.clamp(inside) == inside


class TestDimensions:
    def test_porto_extent_is_city_scale(self):
        assert 10.0 < PORTO.width_km() < 25.0
        assert 10.0 < PORTO.height_km() < 25.0

    @pytest.mark.parametrize("box", [NYC, BEIJING], ids=["nyc", "beijing"])
    def test_example_boxes_are_city_scale(self, box):
        assert 10.0 < box.width_km() < 40.0
        assert 10.0 < box.height_km() < 40.0

    def test_diagonal_exceeds_sides(self):
        assert PORTO.diagonal_km() >= PORTO.width_km()
        assert PORTO.diagonal_km() >= PORTO.height_km()


class TestSampling:
    def test_uniform_sample_inside(self):
        rng = random.Random(0)
        for _ in range(200):
            assert PORTO.contains(PORTO.sample_uniform(rng))

    def test_gaussian_sample_inside(self):
        rng = random.Random(0)
        for _ in range(200):
            assert PORTO.contains(PORTO.sample_gaussian(rng))

    def test_gaussian_sample_concentrates_near_center(self):
        rng = random.Random(0)
        center = PORTO.center
        gauss = [PORTO.sample_gaussian(rng) for _ in range(300)]
        uniform = [PORTO.sample_uniform(rng) for _ in range(300)]
        mean_gauss = sum(center.haversine_km(p) for p in gauss) / len(gauss)
        mean_uniform = sum(center.haversine_km(p) for p in uniform) / len(uniform)
        assert mean_gauss < mean_uniform

    def test_gaussian_requires_positive_sigma(self):
        with pytest.raises(ValueError):
            PORTO.sample_gaussian(random.Random(0), sigma_fraction=0.0)

    def test_sampling_is_deterministic_given_seed(self):
        a = PORTO.sample_uniform(random.Random(7))
        b = PORTO.sample_uniform(random.Random(7))
        assert a == b


class TestSplit:
    def test_split_counts(self):
        assert len(PORTO.split(2, 3)) == 6

    def test_split_cells_tile_the_box(self):
        cells = PORTO.split(3, 3)
        total_area = sum(c.width_km() * c.height_km() for c in cells)
        assert total_area == pytest.approx(PORTO.width_km() * PORTO.height_km(), rel=0.01)

    def test_split_one_by_one_is_the_box_itself(self):
        assert PORTO.split(1, 1) == [PORTO]

    def test_split_invalid(self):
        with pytest.raises(ValueError):
            PORTO.split(0, 2)

    def test_cell_index_matches_split(self):
        rng = random.Random(1)
        cells = PORTO.split(4, 4)
        for _ in range(100):
            p = PORTO.sample_uniform(rng)
            row, col = PORTO.cell_index(p, 4, 4)
            assert cells[row * 4 + col].contains(p)

    def test_cell_index_clamps_outside_points(self):
        row, col = PORTO.cell_index(GeoPoint(0.0, 0.0), 4, 4)
        assert 0 <= row < 4 and 0 <= col < 4
