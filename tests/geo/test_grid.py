"""Tests for repro.geo.grid."""

import random

import pytest

from repro.geo import PORTO, equirectangular_km


def scattered_points(count: int, seed: int = 0):
    rng = random.Random(seed)
    return [PORTO.sample_uniform(rng) for _ in range(count)]


class TestGridIndex:
    """The slot-addressed GridIndex used by the online candidate kernel."""

    def _build(self, count=60, seed=4, cell_km=1.0):
        from repro.geo import GridIndex

        points = scattered_points(count, seed=seed)
        index = GridIndex(PORTO, cell_km=cell_km)
        for point in points:
            index.add(point)
        return index, points

    def test_add_assigns_sequential_slots(self):
        index, points = self._build(count=5)
        assert len(index) == 5

    def test_invalid_cell_size(self):
        from repro.geo import GridIndex

        with pytest.raises(ValueError):
            GridIndex(PORTO, cell_km=-1.0)

    def test_query_is_superset_of_true_radius(self):
        index, points = self._build(count=120, seed=9)
        rng = random.Random(17)
        for _ in range(25):
            center = PORTO.sample_uniform(rng)
            radius = rng.uniform(0.2, 6.0)
            hits = set(index.query_slots(center, radius).tolist())
            for slot, point in enumerate(points):
                if equirectangular_km(center, point) <= radius:
                    assert slot in hits, (slot, radius)

    def test_query_results_sorted(self):
        index, _points = self._build(count=80, seed=2)
        slots = index.query_slots(PORTO.center, 3.0)
        assert list(slots) == sorted(slots.tolist())

    def test_update_moves_slot_between_cells(self):
        index, points = self._build(count=40, seed=5)
        target = PORTO.center
        index.update(3, target)
        hits = index.query_slots(target, 0.5)
        assert 3 in set(hits.tolist())

    def test_update_rejects_unknown_slot(self):
        index, _points = self._build(count=3)
        with pytest.raises(IndexError):
            index.update(99, PORTO.center)

    def test_out_of_box_points_always_returned(self):
        from repro.geo import GeoPoint, GridIndex

        index = GridIndex(PORTO, cell_km=1.0)
        inside = index.add(PORTO.center)
        outside = index.add(GeoPoint(45.0, -8.6))  # far north of Porto
        hits = set(index.query_slots(PORTO.center, 0.5).tolist())
        assert outside in hits
        assert inside in hits

    def test_center_outside_box_returns_everything(self):
        index, points = self._build(count=30)
        from repro.geo import GeoPoint

        hits = index.query_slots(GeoPoint(50.0, 0.0), 1.0)
        assert len(hits) == len(points)

    def test_negative_radius_rejected(self):
        index, _points = self._build(count=3)
        with pytest.raises(ValueError):
            index.query_slots(PORTO.center, -1.0)

    def test_empty_index_query(self):
        from repro.geo import GridIndex

        index = GridIndex(PORTO)
        assert index.query_slots(PORTO.center, 5.0).size == 0


class TestBoundingBoxOf:
    def test_covers_all_points_with_padding(self):
        from repro.geo import bounding_box_of

        points = scattered_points(50, seed=11)
        box = bounding_box_of(points)
        assert all(box.contains(p) for p in points)

    def test_single_point_box_is_non_degenerate(self):
        from repro.geo import bounding_box_of

        box = bounding_box_of([PORTO.center])
        assert box is not None
        assert box.north > box.south
        assert box.east > box.west

    def test_empty_collection_returns_none(self):
        from repro.geo import bounding_box_of

        assert bounding_box_of([]) is None
