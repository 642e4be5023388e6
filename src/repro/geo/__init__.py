"""Geospatial substrate: points, regions, distance/travel models, grid index,
and the vectorised batch kernels (:func:`pairwise_km` / :func:`cross_km`)."""

from .batch import coord_array, cross_km, pairwise_km
from .point import (
    EARTH_RADIUS_KM,
    GeoPoint,
    centroid,
    equirectangular_km,
    haversine_km,
    manhattan_km,
    polyline_length_km,
)
from .region import BEIJING, NYC, PORTO, BoundingBox
from .distance import (
    DistanceEstimator,
    EquirectangularEstimator,
    HaversineEstimator,
    ManhattanEstimator,
    TravelModel,
    default_travel_model,
)
from .grid import GridIndex, bounding_box_of

__all__ = [
    "coord_array",
    "cross_km",
    "pairwise_km",
    "EARTH_RADIUS_KM",
    "GeoPoint",
    "centroid",
    "equirectangular_km",
    "haversine_km",
    "manhattan_km",
    "polyline_length_km",
    "BoundingBox",
    "PORTO",
    "NYC",
    "BEIJING",
    "DistanceEstimator",
    "HaversineEstimator",
    "EquirectangularEstimator",
    "ManhattanEstimator",
    "TravelModel",
    "default_travel_model",
    "GridIndex",
    "bounding_box_of",
]
