"""Distance and travel-time estimation.

The optimisation model never sees a road network: the paper estimates the
empty-drive distance ``d_{n,m,m'}`` and the in-task distance ``d̂_{n,m}`` from
coordinates, then converts them to travel times ``l`` using an average driver
speed, and to travel costs ``c`` using a per-kilometre cost (the gasoline
price).  This module provides pluggable estimators for that pipeline.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

import numpy as np

from . import batch
from .point import GeoPoint, equirectangular_km, haversine_km, manhattan_km


class DistanceEstimator(abc.ABC):
    """Strategy interface for point-to-point driving-distance estimation.

    Besides the scalar :meth:`distance_km`, estimators expose the batch
    :meth:`pairwise_km` / :meth:`cross_km` APIs used by the online candidate
    kernel and the task-map builders.  The base-class implementations fall
    back to the scalar method pair by pair, so any custom estimator keeps
    working; the built-in estimators override them with NumPy kernels that
    match the scalar results to floating-point round-off.
    """

    @abc.abstractmethod
    def distance_km(self, origin: GeoPoint, destination: GeoPoint) -> float:
        """Estimated driving distance from ``origin`` to ``destination`` in km."""

    def __call__(self, origin: GeoPoint, destination: GeoPoint) -> float:
        return self.distance_km(origin, destination)

    # ------------------------------------------------------------------
    # batch APIs
    # ------------------------------------------------------------------
    def pairwise_km(
        self, origins: batch.PointsLike, destinations: batch.PointsLike
    ) -> np.ndarray:
        """Element-wise distances ``out[i] = distance(origins[i], destinations[i])``."""
        o, d = _as_points(origins), _as_points(destinations)
        if len(o) != len(d):
            raise ValueError("pairwise_km needs equally long collections")
        return np.array([self.distance_km(a, b) for a, b in zip(o, d)], dtype=float)

    def cross_km(
        self, origins: batch.PointsLike, destinations: batch.PointsLike
    ) -> np.ndarray:
        """Full distance matrix ``out[i, j] = distance(origins[i], destinations[j])``."""
        o, d = _as_points(origins), _as_points(destinations)
        out = np.empty((len(o), len(d)), dtype=float)
        for i, a in enumerate(o):
            for j, b in enumerate(d):
                out[i, j] = self.distance_km(a, b)
        return out

    def prune_radius_km(self, reach_km: float) -> float | None:
        """A straight-line (equirectangular) radius guaranteed to contain every
        point whose *estimated* distance is at most ``reach_km``.

        Spatial indexes use this to turn a travel-time budget into a safe
        search radius.  ``None`` (the default) means no bound is known and
        callers must fall back to an exhaustive scan.

        The bounds returned by the built-in estimators hold for city-scale
        service areas away from the poles (diagonal up to a few hundred
        kilometres, latitudes within roughly +/-70 degrees), where the
        equirectangular, haversine and L1 metrics agree to within a few
        percent; the candidate kernel only activates its spatial index inside
        that regime.  They are *not* valid for antipodal-scale geometry.
        """
        return None


@dataclass(frozen=True, slots=True)
class HaversineEstimator(DistanceEstimator):
    """Great-circle distance scaled by a road *circuity* factor.

    Empirical studies of urban road networks put the circuity (network
    distance / straight-line distance) between 1.2 and 1.4; the default of
    1.3 sits in the middle of that range.
    """

    circuity: float = 1.3

    #: Name of the raw :mod:`repro.geo.batch` kernel this estimator scales;
    #: lets hot loops call the kernel directly on pre-converted radian arrays.
    batch_metric = "haversine"

    def __post_init__(self) -> None:
        if self.circuity < 1.0:
            raise ValueError("circuity factor must be >= 1.0")

    def distance_km(self, origin: GeoPoint, destination: GeoPoint) -> float:
        return self.circuity * haversine_km(origin, destination)

    def pairwise_km(self, origins, destinations) -> np.ndarray:
        return self.circuity * batch.pairwise_km(origins, destinations, metric="haversine")

    def cross_km(self, origins, destinations) -> np.ndarray:
        return self.circuity * batch.cross_km(origins, destinations, metric="haversine")

    def prune_radius_km(self, reach_km: float) -> float:
        # At city scale within +/-70 degrees latitude (the regime the
        # candidate kernel enforces before indexing) the equirectangular
        # distance exceeds the haversine distance by at most ~13%, dominated
        # by the cos(mean-latitude) mismatch across the box; 20% + 500 m
        # keeps the bound a strict superset with margin to spare.
        return reach_km / self.circuity * 1.2 + 0.5


@dataclass(frozen=True, slots=True)
class EquirectangularEstimator(DistanceEstimator):
    """Cheaper flat-projection variant of :class:`HaversineEstimator`."""

    circuity: float = 1.3

    batch_metric = "equirectangular"

    def __post_init__(self) -> None:
        if self.circuity < 1.0:
            raise ValueError("circuity factor must be >= 1.0")

    def distance_km(self, origin: GeoPoint, destination: GeoPoint) -> float:
        return self.circuity * equirectangular_km(origin, destination)

    def pairwise_km(self, origins, destinations) -> np.ndarray:
        return self.circuity * batch.pairwise_km(origins, destinations, metric="equirectangular")

    def cross_km(self, origins, destinations) -> np.ndarray:
        return self.circuity * batch.cross_km(origins, destinations, metric="equirectangular")

    def prune_radius_km(self, reach_km: float) -> float:
        # The estimator *is* the straight-line metric scaled by circuity, so
        # the conversion is exact; the small absolute pad absorbs round-off.
        return reach_km / self.circuity + 1e-6


@dataclass(frozen=True, slots=True)
class ManhattanEstimator(DistanceEstimator):
    """L1 (grid-city) driving distance; no extra circuity is applied because
    the L1 detour already models rectilinear streets."""

    batch_metric = "manhattan"

    def distance_km(self, origin: GeoPoint, destination: GeoPoint) -> float:
        return manhattan_km(origin, destination)

    def pairwise_km(self, origins, destinations) -> np.ndarray:
        return batch.pairwise_km(origins, destinations, metric="manhattan")

    def cross_km(self, origins, destinations) -> np.ndarray:
        return batch.cross_km(origins, destinations, metric="manhattan")

    def prune_radius_km(self, reach_km: float) -> float:
        # L1 dominates L2 in the same projection, but the L1 east-west leg is
        # scaled by cos(lat of the origin) while the equirectangular metric
        # uses cos(mean latitude); at city scale within +/-70 degrees that
        # mismatch stays well under the 20% + 500 m margin.
        return reach_km * 1.2 + 0.5


@dataclass(frozen=True, slots=True)
class TravelModel:
    """Converts distances to travel times and monetary costs.

    Parameters
    ----------
    estimator:
        The :class:`DistanceEstimator` used for point-to-point distances.
    speed_kmh:
        Average driving speed; the paper estimates travel times by dividing
        the estimated distance by the driver's average speed.
    cost_per_km:
        Driver's marginal cost of driving one kilometre (fuel + wear), used
        for both empty drives and in-task drives.
    window_s / speed_factors / cost_factors / origin_ts:
        An optional piecewise-constant time profile: window ``k`` covers
        ``[origin_ts + k * window_s, origin_ts + (k + 1) * window_s)`` and
        multiplies the base rates by ``speed_factors[k]`` /
        ``cost_factors[k]``.  Timestamps before the profile clamp to the
        first window and timestamps past its end clamp to the last, so the
        model is total over all of time.  The default is one window of
        ones: the paper's time-invariant model.

    Distances never depend on time; only the distance -> time and
    distance -> cost conversions do, and only when they are given a
    timestamp (``ts``).  Without one, and everywhere on a flat profile
    (every factor ``1.0``), the base ``speed_kmh`` / ``cost_per_km`` apply.
    A windowed rate is always ``base * factor`` and ``x * 1.0 == x``, so a
    flat multi-window profile reproduces the one-window model bit for bit
    (parity contract 18).
    """

    estimator: DistanceEstimator
    speed_kmh: float = 30.0
    cost_per_km: float = 0.12
    window_s: float = 3600.0
    speed_factors: Tuple[float, ...] = (1.0,)
    cost_factors: Tuple[float, ...] = (1.0,)
    origin_ts: float = 0.0
    #: True when every window leaves the base rates untouched; computed once
    #: so the flat case skips window lookups entirely.
    is_flat: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not math.isfinite(self.speed_kmh) or self.speed_kmh <= 0:
            raise ValueError("speed_kmh must be positive and finite")
        if not math.isfinite(self.cost_per_km) or self.cost_per_km < 0:
            raise ValueError("cost_per_km must be non-negative and finite")
        object.__setattr__(self, "speed_factors", tuple(float(f) for f in self.speed_factors))
        object.__setattr__(self, "cost_factors", tuple(float(f) for f in self.cost_factors))
        if not math.isfinite(self.window_s) or self.window_s <= 0:
            raise ValueError("window_s must be positive and finite")
        if not math.isfinite(self.origin_ts):
            raise ValueError("origin_ts must be finite")
        if not self.speed_factors:
            raise ValueError("speed_factors must contain at least one window")
        if len(self.cost_factors) != len(self.speed_factors):
            raise ValueError("speed_factors and cost_factors must have equal length")
        for factor in self.speed_factors:
            if not math.isfinite(factor) or factor <= 0:
                raise ValueError("speed factors must be positive and finite")
        for factor in self.cost_factors:
            if not math.isfinite(factor) or factor < 0:
                raise ValueError("cost factors must be non-negative and finite")
        object.__setattr__(
            self,
            "is_flat",
            all(f == 1.0 for f in self.speed_factors) and all(f == 1.0 for f in self.cost_factors),
        )

    # ------------------------------------------------------------------
    # distance / time / cost between arbitrary points
    # ------------------------------------------------------------------
    def distance_km(self, origin: GeoPoint, destination: GeoPoint) -> float:
        """Driving distance estimate in kilometres."""
        return self.estimator.distance_km(origin, destination)

    def travel_time_s(self, origin: GeoPoint, destination: GeoPoint) -> float:
        """Travel-time estimate in seconds."""
        return self.time_for_distance_s(self.distance_km(origin, destination))

    def travel_cost(self, origin: GeoPoint, destination: GeoPoint) -> float:
        """Monetary driving-cost estimate."""
        return self.cost_for_distance(self.distance_km(origin, destination))

    # ------------------------------------------------------------------
    # time indexing
    # ------------------------------------------------------------------
    @property
    def max_speed_kmh(self) -> float:
        """Largest speed over the whole profile — the safe rate for turning a
        time budget into a reach radius (a superset bound for pruning)."""
        return self.speed_kmh * max(self.speed_factors)

    def window_index(self, ts: float) -> int:
        """Profile window containing ``ts`` (clamped to the profile range)."""
        if not math.isfinite(ts):
            raise ValueError("timestamp must be finite")
        index = int((ts - self.origin_ts) // self.window_s)
        return min(max(index, 0), len(self.speed_factors) - 1)

    def rates_at(self, ts: float) -> Tuple[float, float]:
        """``(speed_kmh, cost_per_km)`` in effect at ``ts``."""
        index = self.window_index(ts)
        return (
            self.speed_kmh * self.speed_factors[index],
            self.cost_per_km * self.cost_factors[index],
        )

    def at(self, ts: float) -> "TravelModel":
        """The time-invariant model in effect at ``ts`` (this model itself
        when the profile is flat)."""
        if self.is_flat:
            return self
        speed_kmh, cost_per_km = self.rates_at(ts)
        return TravelModel(self.estimator, speed_kmh=speed_kmh, cost_per_km=cost_per_km)

    # ------------------------------------------------------------------
    # derived models
    # ------------------------------------------------------------------
    def scaled(self, speed_factor: float = 1.0, cost_factor: float = 1.0) -> "TravelModel":
        """A copy of this model with its base speed and per-km cost scaled.

        The hook the scenario engine uses to express city-wide conditions —
        a rainy day halves speeds (``speed_factor=0.5``), a fuel-price spike
        raises ``cost_factor`` — without touching the estimator or any
        caller.  The time profile is kept.
        """
        if not math.isfinite(speed_factor) or speed_factor <= 0:
            raise ValueError("speed_factor must be positive and finite")
        if not math.isfinite(cost_factor) or cost_factor < 0:
            raise ValueError("cost_factor must be non-negative and finite")
        return replace(
            self,
            speed_kmh=self.speed_kmh * speed_factor,
            cost_per_km=self.cost_per_km * cost_factor,
        )

    # ------------------------------------------------------------------
    # conversions for known distances (e.g. taken from the trace itself)
    # ------------------------------------------------------------------
    def time_for_distance_s(self, distance_km: float, ts: Optional[float] = None) -> float:
        """Seconds needed to drive ``distance_km`` at the speed in effect at
        ``ts`` (the base speed when ``ts`` is ``None``)."""
        if distance_km < 0:
            raise ValueError("distance must be non-negative")
        if ts is None or self.is_flat:
            return distance_km / self.speed_kmh * 3600.0
        return distance_km / self.rates_at(ts)[0] * 3600.0

    def cost_for_distance(self, distance_km: float, ts: Optional[float] = None) -> float:
        """Monetary cost of driving ``distance_km`` at the per-km cost in
        effect at ``ts`` (the base cost when ``ts`` is ``None``)."""
        if distance_km < 0:
            raise ValueError("distance must be non-negative")
        if ts is None or self.is_flat:
            return distance_km * self.cost_per_km
        return distance_km * self.rates_at(ts)[1]


def _as_points(points: batch.PointsLike) -> list:
    """Materialise a point collection as a list of :class:`GeoPoint` (slow
    path used only by the generic scalar fallbacks)."""
    if isinstance(points, np.ndarray):
        arr = batch.coord_array(points)
        return [GeoPoint(float(lat), float(lon)) for lat, lon in arr]
    return list(points)


def default_travel_model(speed_kmh: float = 30.0, cost_per_km: float = 0.12) -> TravelModel:
    """The travel model used throughout the evaluation.

    Haversine distances with a 1.3 circuity factor, a 30 km/h average urban
    speed and a 0.12 currency-unit/km driving cost (approximately the Porto
    gasoline cost per km in the trace period).
    """
    return TravelModel(HaversineEstimator(), speed_kmh=speed_kmh, cost_per_km=cost_per_km)
