"""Uniform spatial grid index.

The online heuristics (Algorithms 3 and 4 of the paper) repeatedly ask
"which drivers could reach the source of this task in time?".  A linear scan
over all drivers is fine for a few hundred drivers; :class:`GridIndex`
buckets the fleet into uniform cells so the simulators only run their exact
checks on the drivers near a task, which keeps city-scale sweeps fast.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Tuple

import numpy as np

from .point import EARTH_RADIUS_KM, GeoPoint
from .region import BoundingBox


def _grid_shape(box: BoundingBox, cell_km: float) -> Tuple[int, int]:
    """(rows, cols) of a uniform grid of ~``cell_km`` cells over ``box``."""
    rows = max(1, int(math.ceil(box.height_km() / cell_km)))
    cols = max(1, int(math.ceil(box.width_km() / cell_km)))
    return rows, cols


def _cell_of(box: BoundingBox, rows: int, cols: int, point: GeoPoint) -> Tuple[int, int]:
    """The (row, col) cell of ``point`` (clamped into the box)."""
    clamped = box.clamp(point)
    row = int((clamped.lat - box.south) / max(1e-12, (box.north - box.south)) * rows)
    col = int((clamped.lon - box.west) / max(1e-12, (box.east - box.west)) * cols)
    return min(rows - 1, max(0, row)), min(cols - 1, max(0, col))


class GridIndex:
    """Slot-addressed bucket index over a *fixed roster* of movable points.

    The online dispatch hot path tracks a fixed fleet of drivers whose
    positions change constantly and whose identities are plain array slots.
    A :class:`GridIndex` buckets slot numbers into uniform ``cell_km`` cells
    over a bounding box and answers *superset* range queries:

    ``query_slots(center, radius_km)`` returns every slot whose point could be
    within ``radius_km`` (equirectangular) of ``center`` — callers run their
    exact vectorised distance/feasibility checks on the returned slots, so
    false positives cost a few array lanes while false negatives would be
    correctness bugs.  The guarantee is kept unconditionally:

    * points outside the bounding box are marked with a sentinel cell that is
      included in every answer (clamping them into border cells could
      under-estimate their distance);
    * a query whose center lies outside the box, or whose radius reaches the
      whole grid, degrades to the exhaustive answer (all slots).

    The index stores one ``(row, col)`` pair per slot in flat integer arrays:
    updates are O(1) scalar writes and range queries are a single vectorised
    window test, which is what the per-task cadence of the online simulator
    needs (one query and at most one update per dispatched task).
    """

    def __init__(self, box: BoundingBox, cell_km: float = 1.0) -> None:
        if cell_km <= 0:
            raise ValueError("cell_km must be positive")
        self._box = box
        self._rows, self._cols = _grid_shape(box, cell_km)
        # Conservative per-cell extents used to convert a km radius into a
        # cell window.  Rows span equal latitude bands; column width shrinks
        # towards the poles, so the narrowest latitude of the box bounds it.
        self._cell_height_km = max(1e-9, box.height_km() / self._rows)
        min_cos = min(math.cos(math.radians(box.south)), math.cos(math.radians(box.north)))
        lon_step_rad = math.radians((box.east - box.west) / self._cols)
        self._min_cell_width_km = max(
            1e-9, lon_step_rad * max(0.0, min_cos) * EARTH_RADIUS_KM
        )
        self._row = np.empty(16, dtype=np.int32)
        self._col = np.empty(16, dtype=np.int32)
        self._count = 0

    def __len__(self) -> int:
        return self._count

    @property
    def shape(self) -> Tuple[int, int]:
        return self._rows, self._cols

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def add(self, point: GeoPoint) -> int:
        """Register a new point; returns its slot number (0, 1, 2, ...)."""
        slot = self._count
        if slot == len(self._row):
            self._row = np.resize(self._row, 2 * slot)
            self._col = np.resize(self._col, 2 * slot)
        self._count += 1
        self._place(slot, point)
        return slot

    def update(self, slot: int, point: GeoPoint) -> None:
        """Move ``slot`` to a new position."""
        if slot < 0 or slot >= self._count:
            raise IndexError(f"unknown slot {slot}")
        self._place(slot, point)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def query_slots(self, center: GeoPoint, radius_km: float) -> np.ndarray:
        """A sorted superset of the slots within ``radius_km`` of ``center``."""
        if radius_km < 0:
            raise ValueError("radius_km must be non-negative")
        if self._count == 0:
            return np.empty(0, dtype=np.intp)
        if not self._box.contains(center):
            return np.arange(self._count, dtype=np.intp)
        row, col = _cell_of(self._box, self._rows, self._cols, center)
        span_r = int(radius_km / self._cell_height_km) + 1
        span_c = int(radius_km / self._min_cell_width_km) + 1
        r_lo, r_hi = max(0, row - span_r), min(self._rows - 1, row + span_r)
        c_lo, c_hi = max(0, col - span_c), min(self._cols - 1, col + span_c)
        if (r_hi - r_lo + 1) * (c_hi - c_lo + 1) >= self._rows * self._cols:
            return np.arange(self._count, dtype=np.intp)

        rows = self._row[: self._count]
        cols = self._col[: self._count]
        in_window = (
            (rows >= r_lo) & (rows <= r_hi) & (cols >= c_lo) & (cols <= c_hi)
        ) | (rows < 0)
        return np.nonzero(in_window)[0]

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _place(self, slot: int, point: GeoPoint) -> None:
        if self._box.contains(point):
            row, col = _cell_of(self._box, self._rows, self._cols, point)
        else:
            row = col = -1  # sentinel: out-of-box, matched by every query
        self._row[slot] = row
        self._col[slot] = col


def bounding_box_of(points: Iterable[GeoPoint], pad_deg: float = 0.02) -> Optional[BoundingBox]:
    """The padded axis-aligned bounding box of a point collection.

    Returns ``None`` for an empty collection.  The padding keeps the box
    non-degenerate even for a single point and gives moving items (drivers
    drifting to task drop-offs) some room before they land in the
    :class:`GridIndex` overflow set.
    """
    pts = list(points)
    if not pts:
        return None
    lats = [p.lat for p in pts]
    lons = [p.lon for p in pts]
    return BoundingBox(
        south=max(-90.0, min(lats) - pad_deg),
        west=max(-180.0, min(lons) - pad_deg),
        north=min(90.0, max(lats) + pad_deg),
        east=min(180.0, max(lons) + pad_deg),
    )
