"""Vectorised geo kernels.

The scalar primitives in :mod:`repro.geo.point` are exact but Python-level;
every online candidate search and offline task-map construction needs
*thousands to millions* of driver-task distances per instance, which makes
the per-pair function-call overhead the dominant cost of the whole pipeline.
This module provides NumPy batch equivalents of the three distance metrics:

* :func:`pairwise_km` — element-wise distances between two equally long point
  collections (``out[i] = metric(a[i], b[i])``);
* :func:`cross_km` — the full distance matrix between two collections
  (``out[i, j] = metric(a[i], b[j])``).

Both replicate the scalar formulas operation for operation, so the results
match :func:`repro.geo.point.haversine_km` /
:func:`~repro.geo.point.equirectangular_km` /
:func:`~repro.geo.point.manhattan_km` to floating-point round-off (well below
1e-9 km at city scale); the property tests in ``tests/test_properties.py``
pin that parity.

Inputs may be sequences of :class:`~repro.geo.point.GeoPoint` or ``(n, 2)``
NumPy arrays of ``(lat, lon)`` decimal degrees — the array form lets hot
loops (the online candidate kernel) skip object conversion entirely.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from .point import EARTH_RADIUS_KM, GeoPoint

#: Accepted point-collection types: GeoPoint sequences or (n, 2) degree arrays.
PointsLike = Union[Sequence[GeoPoint], np.ndarray]

#: Names of the supported batch metrics.
METRICS = ("haversine", "equirectangular", "manhattan")


def coord_array(points: PointsLike) -> np.ndarray:
    """Normalise a point collection to a ``(n, 2)`` float array of degrees."""
    if isinstance(points, np.ndarray):
        arr = np.asarray(points, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError(f"coordinate array must have shape (n, 2), got {arr.shape}")
        return arr
    pts = list(points)
    arr = np.empty((len(pts), 2), dtype=float)
    for i, p in enumerate(pts):
        arr[i, 0] = p.lat
        arr[i, 1] = p.lon
    return arr


def pairwise_km(
    points_a: PointsLike, points_b: PointsLike, metric: str = "haversine"
) -> np.ndarray:
    """Element-wise distances ``out[i] = metric(a[i], b[i])`` in kilometres.

    ``points_a`` and ``points_b`` must have the same length.
    """
    a = coord_array(points_a)
    b = coord_array(points_b)
    if a.shape[0] != b.shape[0]:
        raise ValueError(
            f"pairwise_km needs equally long collections, got {a.shape[0]} and {b.shape[0]}"
        )
    lat1, lon1 = np.radians(a[:, 0]), np.radians(a[:, 1])
    lat2, lon2 = np.radians(b[:, 0]), np.radians(b[:, 1])
    return metric_fn(metric)(lat1, lon1, lat2, lon2)


def cross_km(
    points_a: PointsLike, points_b: PointsLike, metric: str = "haversine"
) -> np.ndarray:
    """Full distance matrix ``out[i, j] = metric(a[i], b[j])`` in kilometres."""
    a = coord_array(points_a)
    b = coord_array(points_b)
    lat1 = np.radians(a[:, 0])[:, None]
    lon1 = np.radians(a[:, 1])[:, None]
    lat2 = np.radians(b[:, 0])[None, :]
    lon2 = np.radians(b[:, 1])[None, :]
    return metric_fn(metric)(lat1, lon1, lat2, lon2)


# ----------------------------------------------------------------------
# metric implementations (radian inputs, km outputs)
# ----------------------------------------------------------------------
def _haversine(lat1, lon1, lat2, lon2) -> np.ndarray:
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    h = np.sin(dlat / 2.0) ** 2 + np.cos(lat1) * np.cos(lat2) * np.sin(dlon / 2.0) ** 2
    h = np.minimum(1.0, h)
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(h))


def _equirectangular(lat1, lon1, lat2, lon2) -> np.ndarray:
    x = (lon2 - lon1) * np.cos((lat1 + lat2) / 2.0)
    y = lat2 - lat1
    return EARTH_RADIUS_KM * np.hypot(x, y)


def _manhattan(lat1, lon1, lat2, lon2) -> np.ndarray:
    # Same decomposition as the scalar function: a -> corner (lat1, lon2),
    # then corner -> b, each leg an equirectangular distance with one
    # component exactly zero — and hypot(v, 0) == |v| bit-for-bit (IEEE 754),
    # so plain absolute values keep scalar parity without the hypot cost.
    x = (lon2 - lon1) * np.cos(lat1)
    y = lat2 - lat1
    return EARTH_RADIUS_KM * np.abs(x) + EARTH_RADIUS_KM * np.abs(y)


_METRIC_FNS = {
    "haversine": _haversine,
    "equirectangular": _equirectangular,
    "manhattan": _manhattan,
}


def metric_fn(metric: str):
    """The raw kernel for ``metric``: ``fn(lat1, lon1, lat2, lon2)`` with
    *radian* array inputs, returning kilometres.

    Exposed for hot loops (the online candidate kernel) that keep
    pre-converted radian arrays and cannot afford the per-call degree
    conversion of :func:`pairwise_km` / :func:`cross_km`.
    """
    try:
        return _METRIC_FNS[metric]
    except KeyError:
        raise ValueError(f"unknown metric {metric!r}; available: {METRICS}") from None
