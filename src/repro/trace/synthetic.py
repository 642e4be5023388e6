"""Synthetic Porto-like trace generation.

The real ECML/PKDD-15 trace is not available offline, so the evaluation runs
on a synthetic trace calibrated to the marginals the paper reports:

* trip travel times and travel distances with a power-law-shaped heavy tail
  (Figs. 3 and 4 of the paper);
* a 442-taxi fleet operating inside the Porto bounding box;
* a diurnal demand cycle (morning and evening peaks) so that "one day of
  records" is a meaningful workload slice;
* spatially clustered demand (downtown-heavy pickups).

The generator is fully deterministic given a seed, so every benchmark and
test run reproduces the exact same workload.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from ..geo import BoundingBox, GeoPoint, PORTO
from .powerlaw import PowerLawDistribution
from .records import TripRecord

#: Hook signature for custom pickup sampling: receives the generator's RNG and
#: the trip's start offset (seconds of day) and returns a point, or ``None``
#: to fall back to the generator's default spatial model.
OriginSampler = Callable[[random.Random, float], Optional[GeoPoint]]


def sample_demand_point(
    rng: random.Random, box: BoundingBox, downtown_fraction: float
) -> GeoPoint:
    """The library's canonical spatial demand model: downtown-clustered with
    probability ``downtown_fraction``, uniform otherwise.

    The single source of truth shared by this generator's default pickup
    sampling and the scenario compiler's event samplers — they must draw the
    RNG identically for scenario composition to stay faithful to base
    demand, so any change to the model belongs here, not at a call site.
    """
    if rng.random() < downtown_fraction:
        return box.sample_gaussian(rng)
    return box.sample_uniform(rng)


@dataclass(frozen=True, slots=True)
class TraceConfig:
    """Configuration of the synthetic trace generator.

    The defaults reproduce the paper's setup: the Porto service area, a
    442-taxi fleet and heavy-tailed trip durations whose median sits around
    ten minutes (the mode of Fig. 3).
    """

    bounding_box: BoundingBox = PORTO
    fleet_size: int = 442
    #: Power-law exponent of the trip-duration distribution.
    duration_alpha: float = 2.6
    #: Minimum / maximum trip duration in seconds.
    duration_min_s: float = 180.0
    duration_max_s: float = 7200.0
    #: Average driving speed used to derive distances from durations.
    speed_kmh: float = 28.0
    #: Relative jitter applied to per-trip speed (0.2 = +/-20%).
    speed_jitter: float = 0.2
    #: Fraction of demand drawn from the downtown Gaussian cluster.
    downtown_fraction: float = 0.65
    #: Mean number of trips per driver per day.
    trips_per_driver_per_day: float = 12.0
    seed: int = 2017

    def __post_init__(self) -> None:
        if self.fleet_size < 1:
            raise ValueError("fleet_size must be >= 1")
        if not 0.0 <= self.downtown_fraction <= 1.0:
            raise ValueError("downtown_fraction must be in [0, 1]")
        if self.duration_min_s <= 0 or self.duration_max_s <= self.duration_min_s:
            raise ValueError("invalid duration bounds")
        if self.speed_kmh <= 0:
            raise ValueError("speed_kmh must be positive")
        if not 0.0 <= self.speed_jitter < 1.0:
            raise ValueError("speed_jitter must be in [0, 1)")
        if self.trips_per_driver_per_day <= 0:
            raise ValueError("trips_per_driver_per_day must be positive")


#: Hourly demand weights (24 entries) modelling Porto's diurnal cycle:
#: a small night trough, a morning peak around 08-09h and an evening peak
#: around 18-19h.
DIURNAL_WEIGHTS: Sequence[float] = (
    0.4, 0.3, 0.25, 0.2, 0.25, 0.4,  # 00-05
    0.8, 1.3, 1.6, 1.4, 1.1, 1.0,    # 06-11
    1.1, 1.0, 0.9, 1.0, 1.2, 1.5,    # 12-17
    1.7, 1.6, 1.3, 1.0, 0.8, 0.6,    # 18-23
)


class PortoLikeTraceGenerator:
    """Generates synthetic trips with Porto-trace-like marginals.

    Two optional hooks let callers (most prominently the scenario engine in
    :mod:`repro.scenarios`) vary demand over time and space without forking
    the generator:

    ``slot_weights``
        Replaces the hourly :data:`DIURNAL_WEIGHTS` with a custom demand
        profile of any resolution: ``K`` weights partition the day into
        ``K`` equal slots (``K=24`` reproduces the hourly default, ``K=96``
        gives 15-minute resolution for sharp surges).  ``None`` keeps the
        built-in diurnal cycle — and consumes the RNG identically to
        previous releases, so existing seeded traces are unchanged.
    ``origin_sampler``
        Called as ``origin_sampler(rng, start_offset_s)`` for every trip;
        returning a point overrides the pickup location, returning ``None``
        falls back to the default downtown-clustered model.  The hook sees
        the generator's own RNG, so a deterministic sampler keeps the whole
        trace deterministic from the seed.
    """

    def __init__(
        self,
        config: TraceConfig | None = None,
        *,
        slot_weights: Optional[Sequence[float]] = None,
        origin_sampler: Optional[OriginSampler] = None,
    ) -> None:
        self.config = config or TraceConfig()
        if slot_weights is not None:
            slot_weights = tuple(float(w) for w in slot_weights)
            if not slot_weights or any(w < 0 for w in slot_weights):
                raise ValueError("slot_weights must be non-empty and non-negative")
            if sum(slot_weights) <= 0:
                raise ValueError("slot_weights must have positive total mass")
        self.slot_weights = slot_weights
        self.origin_sampler = origin_sampler
        self._duration_dist = PowerLawDistribution(
            alpha=self.config.duration_alpha,
            x_min=self.config.duration_min_s,
            x_max=self.config.duration_max_s,
        )

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def generate_day(self, day_index: int = 0, trip_count: Optional[int] = None) -> List[TripRecord]:
        """Generate one day of trips.

        Parameters
        ----------
        day_index:
            Which day of the trace to generate; the seed is derived from it
            so different days differ but each day is reproducible.
        trip_count:
            Total number of trips to generate.  Defaults to
            ``fleet_size * trips_per_driver_per_day``.
        """
        if day_index < 0:
            raise ValueError("day_index must be non-negative")
        cfg = self.config
        rng = random.Random(f"{cfg.seed}:day:{day_index}")
        count = trip_count if trip_count is not None else int(
            round(cfg.fleet_size * cfg.trips_per_driver_per_day)
        )
        if count < 0:
            raise ValueError("trip_count must be non-negative")

        day_start = day_index * 86400.0
        trips: List[TripRecord] = []
        for i in range(count):
            start_offset = self._sample_start_offset(rng)
            duration = self._duration_dist.sample(rng)
            origin = self._sample_location(rng, start_offset)
            destination = self._sample_destination(rng, origin, duration)
            speed = cfg.speed_kmh * (1.0 + rng.uniform(-cfg.speed_jitter, cfg.speed_jitter))
            distance = duration / 3600.0 * speed
            driver_id = f"taxi-{rng.randrange(cfg.fleet_size):04d}"
            trips.append(
                TripRecord(
                    trip_id=f"day{day_index}-trip{i:06d}",
                    driver_id=driver_id,
                    start_ts=day_start + start_offset,
                    end_ts=day_start + start_offset + duration,
                    origin=origin,
                    destination=destination,
                    distance_km=distance,
                )
            )
        trips.sort(key=lambda t: t.start_ts)
        return trips

    # ------------------------------------------------------------------
    # sampling internals
    # ------------------------------------------------------------------
    def _sample_start_offset(self, rng: random.Random) -> float:
        """Sample a second-of-day according to the demand profile.

        Without ``slot_weights`` this is the hourly diurnal cycle (and draws
        the RNG exactly as it always has); with them, the day is divided
        into ``len(slot_weights)`` equal slots and the start is uniform
        within the chosen slot.
        """
        if self.slot_weights is None:
            hour = rng.choices(range(24), weights=DIURNAL_WEIGHTS, k=1)[0]
            return hour * 3600.0 + rng.uniform(0.0, 3600.0)
        slot_count = len(self.slot_weights)
        slot_s = 86400.0 / slot_count
        slot = rng.choices(range(slot_count), weights=self.slot_weights, k=1)[0]
        return slot * slot_s + rng.uniform(0.0, slot_s)

    def _sample_location(self, rng: random.Random, start_offset_s: float = 0.0) -> GeoPoint:
        """Sample a pickup location (hook first, else downtown-clustered or
        uniform)."""
        if self.origin_sampler is not None:
            point = self.origin_sampler(rng, start_offset_s)
            if point is not None:
                return point
        return sample_demand_point(
            rng, self.config.bounding_box, self.config.downtown_fraction
        )

    def _sample_destination(
        self, rng: random.Random, origin: GeoPoint, duration_s: float
    ) -> GeoPoint:
        """Sample a drop-off roughly consistent with the trip duration.

        The crow-fly displacement is the driven distance divided by a 1.3
        circuity factor, placed in a uniformly random direction and clamped
        to the service area.
        """
        cfg = self.config
        distance_km = duration_s / 3600.0 * cfg.speed_kmh
        crow_fly_km = distance_km / 1.3
        bearing = rng.uniform(0.0, 2.0 * math.pi)
        north = crow_fly_km * math.cos(bearing)
        east = crow_fly_km * math.sin(bearing)
        try:
            destination = origin.offset_km(north, east)
        except ValueError:
            destination = origin
        return cfg.bounding_box.clamp(destination)


def generate_trace(
    trip_count: int,
    seed: int = 2017,
    config: TraceConfig | None = None,
) -> List[TripRecord]:
    """Convenience helper: one day of exactly ``trip_count`` synthetic trips."""
    base = config or TraceConfig()
    cfg = TraceConfig(
        bounding_box=base.bounding_box,
        fleet_size=base.fleet_size,
        duration_alpha=base.duration_alpha,
        duration_min_s=base.duration_min_s,
        duration_max_s=base.duration_max_s,
        speed_kmh=base.speed_kmh,
        speed_jitter=base.speed_jitter,
        downtown_fraction=base.downtown_fraction,
        trips_per_driver_per_day=base.trips_per_driver_per_day,
        seed=seed,
    )
    generator = PortoLikeTraceGenerator(cfg)
    return generator.generate_day(0, trip_count=trip_count)
