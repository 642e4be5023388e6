"""Rectangular geographic regions and the city boxes.

The evaluation in the paper is run on the city of Porto, Portugal.  A
:class:`BoundingBox` models the rectangular service area of a market; the
:data:`PORTO`, :data:`NYC` and :data:`BEIJING` presets are used by the trace
generators and the examples.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Tuple

from .point import GeoPoint, equirectangular_km


@dataclass(frozen=True, slots=True)
class BoundingBox:
    """An axis-aligned lat/lon rectangle describing a service area."""

    south: float
    west: float
    north: float
    east: float

    def __post_init__(self) -> None:
        if self.south >= self.north:
            raise ValueError("south latitude must be strictly below north latitude")
        if self.west >= self.east:
            raise ValueError("west longitude must be strictly below east longitude")

    @property
    def center(self) -> GeoPoint:
        return GeoPoint((self.south + self.north) / 2.0, (self.west + self.east) / 2.0)

    def contains(self, point: GeoPoint) -> bool:
        """Whether ``point`` lies inside (or on the border of) the box."""
        return self.south <= point.lat <= self.north and self.west <= point.lon <= self.east

    def clamp(self, point: GeoPoint) -> GeoPoint:
        """Project ``point`` onto the box (nearest point inside it)."""
        return GeoPoint(
            min(max(point.lat, self.south), self.north),
            min(max(point.lon, self.west), self.east),
        )

    def width_km(self) -> float:
        """East-west extent measured along the box's central latitude."""
        mid_lat = (self.south + self.north) / 2.0
        return equirectangular_km(GeoPoint(mid_lat, self.west), GeoPoint(mid_lat, self.east))

    def height_km(self) -> float:
        """North-south extent of the box."""
        return equirectangular_km(GeoPoint(self.south, self.west), GeoPoint(self.north, self.west))

    def diagonal_km(self) -> float:
        return math.hypot(self.width_km(), self.height_km())

    def sample_uniform(self, rng: random.Random) -> GeoPoint:
        """Draw a point uniformly at random inside the box."""
        return GeoPoint(
            rng.uniform(self.south, self.north),
            rng.uniform(self.west, self.east),
        )

    def sample_gaussian(self, rng: random.Random, sigma_fraction: float = 0.18) -> GeoPoint:
        """Draw a point from a Gaussian centred on the box, clamped inside.

        Real demand is concentrated downtown rather than uniform; the
        Gaussian sampler models that concentration with ``sigma_fraction`` of
        the box's half-extent as the standard deviation.
        """
        if sigma_fraction <= 0:
            raise ValueError("sigma_fraction must be positive")
        c = self.center
        lat = rng.gauss(c.lat, (self.north - self.south) / 2.0 * sigma_fraction)
        lon = rng.gauss(c.lon, (self.east - self.west) / 2.0 * sigma_fraction)
        return self.clamp(GeoPoint(lat, lon))

    def split(self, rows: int, cols: int) -> List["BoundingBox"]:
        """Split the box into ``rows x cols`` equal sub-boxes (row-major order).

        Used by the distributed partitioner to shard a city-scale market.
        """
        if rows < 1 or cols < 1:
            raise ValueError("rows and cols must be >= 1")
        lat_step = (self.north - self.south) / rows
        lon_step = (self.east - self.west) / cols
        boxes: List[BoundingBox] = []
        for r in range(rows):
            for c in range(cols):
                boxes.append(
                    BoundingBox(
                        south=self.south + r * lat_step,
                        west=self.west + c * lon_step,
                        north=self.south + (r + 1) * lat_step,
                        east=self.west + (c + 1) * lon_step,
                    )
                )
        return boxes

    def cell_index(self, point: GeoPoint, rows: int, cols: int) -> Tuple[int, int]:
        """Return the (row, col) of ``point`` within a ``rows x cols`` split."""
        if not self.contains(point):
            point = self.clamp(point)
        lat_step = (self.north - self.south) / rows
        lon_step = (self.east - self.west) / cols
        row = min(rows - 1, int((point.lat - self.south) / lat_step))
        col = min(cols - 1, int((point.lon - self.west) / lon_step))
        return row, col


#: Porto, Portugal — the service area of the ECML/PKDD-15 taxi trace.
PORTO = BoundingBox(south=41.10, west=-8.70, north=41.25, east=-8.52)

#: Manhattan-centric New York City box (used by examples).
NYC = BoundingBox(south=40.63, west=-74.05, north=40.85, east=-73.85)

#: Central Beijing box (used by examples).
BEIJING = BoundingBox(south=39.80, west=116.20, north=40.05, east=116.55)
