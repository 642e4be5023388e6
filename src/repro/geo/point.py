"""Geographic points and basic great-circle geometry.

The paper describes every driver source/destination and every task
source/destination as a ``(latitude, longitude)`` tuple.  This module provides
the :class:`GeoPoint` value type used throughout the library together with the
low-level distance primitives (haversine and the cheaper equirectangular
approximation) that the higher-level distance estimators build on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, Tuple

#: Mean Earth radius in kilometres (IUGG value), used by all spherical formulas.
EARTH_RADIUS_KM = 6371.0088


@dataclass(frozen=True, slots=True)
class GeoPoint:
    """A point on the Earth's surface.

    Attributes
    ----------
    lat:
        Latitude in decimal degrees, in ``[-90, 90]``.
    lon:
        Longitude in decimal degrees, in ``[-180, 180]``.
    """

    lat: float
    lon: float

    def __post_init__(self) -> None:
        if not -90.0 <= self.lat <= 90.0:
            raise ValueError(f"latitude {self.lat!r} outside [-90, 90]")
        if not -180.0 <= self.lon <= 180.0:
            raise ValueError(f"longitude {self.lon!r} outside [-180, 180]")

    def haversine_km(self, other: "GeoPoint") -> float:
        """Great-circle distance to ``other`` in kilometres."""
        return haversine_km(self, other)

    def equirectangular_km(self, other: "GeoPoint") -> float:
        """Fast approximate distance to ``other`` in kilometres."""
        return equirectangular_km(self, other)

    def midpoint(self, other: "GeoPoint") -> "GeoPoint":
        """Arithmetic midpoint in lat/lon space (adequate at city scale)."""
        return GeoPoint((self.lat + other.lat) / 2.0, (self.lon + other.lon) / 2.0)

    def offset_km(self, north_km: float, east_km: float) -> "GeoPoint":
        """Return a point offset by ``north_km`` / ``east_km`` kilometres.

        Uses the local flat-earth approximation, which is accurate to well
        under a percent for the city-scale offsets this library works with.
        """
        dlat = north_km / _KM_PER_DEGREE_LAT
        km_per_degree_lon = _KM_PER_DEGREE_LAT * math.cos(math.radians(self.lat))
        if km_per_degree_lon <= 1e-9:
            raise ValueError("cannot offset east/west at the poles")
        dlon = east_km / km_per_degree_lon
        return GeoPoint(self.lat + dlat, self.lon + dlon)


_KM_PER_DEGREE_LAT = math.pi * EARTH_RADIUS_KM / 180.0


def haversine_km(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle (haversine) distance between two points in kilometres."""
    lat1, lon1 = math.radians(a.lat), math.radians(a.lon)
    lat2, lon2 = math.radians(b.lat), math.radians(b.lon)
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    h = math.sin(dlat / 2.0) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2.0) ** 2
    h = min(1.0, h)
    return 2.0 * EARTH_RADIUS_KM * math.asin(math.sqrt(h))


def equirectangular_km(a: GeoPoint, b: GeoPoint) -> float:
    """Equirectangular-projection distance in kilometres.

    Roughly 5x cheaper than :func:`haversine_km` and accurate to a fraction of
    a percent at city scale; used on hot paths such as candidate filtering.
    """
    lat1, lon1 = math.radians(a.lat), math.radians(a.lon)
    lat2, lon2 = math.radians(b.lat), math.radians(b.lon)
    x = (lon2 - lon1) * math.cos((lat1 + lat2) / 2.0)
    y = lat2 - lat1
    return EARTH_RADIUS_KM * math.hypot(x, y)


def manhattan_km(a: GeoPoint, b: GeoPoint) -> float:
    """Manhattan (L1) distance on the sphere's local projection, in km.

    Street networks rarely allow straight-line travel; the paper estimates
    travel distances from the trace, and the L1 metric is the standard
    grid-city approximation when no road network is available.
    """
    corner = GeoPoint(a.lat, b.lon)
    return equirectangular_km(a, corner) + equirectangular_km(corner, b)


def centroid(points: Iterable[GeoPoint]) -> GeoPoint:
    """Arithmetic centroid of a non-empty collection of points."""
    pts = list(points)
    if not pts:
        raise ValueError("centroid() of an empty collection")
    lat = sum(p.lat for p in pts) / len(pts)
    lon = sum(p.lon for p in pts) / len(pts)
    return GeoPoint(lat, lon)


def polyline_length_km(points: Sequence[GeoPoint]) -> float:
    """Total haversine length of a polyline (e.g. a Porto trip trajectory)."""
    if len(points) < 2:
        return 0.0
    return sum(haversine_km(p, q) for p, q in _pairwise(points))


def _pairwise(points: Sequence[GeoPoint]) -> Iterator[Tuple[GeoPoint, GeoPoint]]:
    for i in range(len(points) - 1):
        yield points[i], points[i + 1]
