"""Dynamic surge pricing.

Uber's surge pricing (referenced by the paper as [2], Chen & Sheldon 2015)
raises the price multiplier when demand exceeds supply "for a given geographic
area".  The paper's evaluation uses the simplified multiplier of Eq. (15)
"dynamically changed based on real market scenarios"; this module implements a
zone-and-time-window surge engine that produces exactly such a multiplier from
observed demand (requests) and supply (idle drivers) counts.

The engine is deliberately decoupled from the simulator: callers *report*
demand and supply observations, and the engine answers multiplier queries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Tuple

from ..geo import BoundingBox, GeoPoint, PORTO
from .base import PricingPolicy, RideQuote
from .linear import FareSchedule


@dataclass(frozen=True, slots=True)
class SurgeConfig:
    """Parameters of the surge engine.

    The multiplier for a zone/window is::

        alpha = clip(1 + sensitivity * max(0, demand/supply - 1),
                     min_multiplier, max_multiplier)

    with ``demand/supply`` treated as ``max_multiplier`` when supply is zero
    but demand is positive.  Uber's production multipliers are quantised to
    0.1 steps; ``quantum`` reproduces that.
    """

    bounding_box: BoundingBox = PORTO
    zone_rows: int = 6
    zone_cols: int = 6
    window_s: float = 900.0
    sensitivity: float = 0.5
    min_multiplier: float = 1.0
    max_multiplier: float = 3.0
    quantum: float = 0.1

    def __post_init__(self) -> None:
        if self.zone_rows < 1 or self.zone_cols < 1:
            raise ValueError("zone grid must be at least 1x1")
        if self.window_s <= 0:
            raise ValueError("window_s must be positive")
        if self.sensitivity < 0:
            raise ValueError("sensitivity must be non-negative")
        if not 0 < self.min_multiplier <= self.max_multiplier:
            raise ValueError("need 0 < min_multiplier <= max_multiplier")
        if self.quantum < 0:
            raise ValueError("quantum must be non-negative")


ZoneWindow = Tuple[int, int, int]


class SurgeEngine:
    """Tracks demand/supply per (zone, time window) and derives multipliers."""

    def __init__(self, config: SurgeConfig | None = None) -> None:
        self.config = config or SurgeConfig()
        self._demand: Dict[ZoneWindow, int] = {}
        self._supply: Dict[ZoneWindow, int] = {}

    # ------------------------------------------------------------------
    # observation reporting
    # ------------------------------------------------------------------
    def record_demand(self, location: GeoPoint, ts: float, count: int = 1) -> None:
        """Report ``count`` ride requests at ``location`` around time ``ts``."""
        if count < 0:
            raise ValueError("count must be non-negative")
        key = self._key(location, ts)
        self._demand[key] = self._demand.get(key, 0) + count

    def record_supply(self, location: GeoPoint, ts: float, count: int = 1) -> None:
        """Report ``count`` available (idle) drivers at ``location`` around ``ts``."""
        if count < 0:
            raise ValueError("count must be non-negative")
        key = self._key(location, ts)
        self._supply[key] = self._supply.get(key, 0) + count

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def multiplier(self, location: GeoPoint, ts: float) -> float:
        """The surge multiplier ``alpha`` for a request at ``location``/``ts``."""
        cfg = self.config
        key = self._key(location, ts)
        demand = self._demand.get(key, 0)
        supply = self._supply.get(key, 0)
        if demand <= 0:
            raw = cfg.min_multiplier
        elif supply <= 0:
            raw = cfg.max_multiplier
        else:
            imbalance = max(0.0, demand / supply - 1.0)
            raw = 1.0 + cfg.sensitivity * imbalance
        clipped = min(cfg.max_multiplier, max(cfg.min_multiplier, raw))
        return self._quantise(clipped)

    def imbalance(self, location: GeoPoint, ts: float) -> float:
        """Raw demand/supply ratio for diagnostics (inf when supply is zero)."""
        key = self._key(location, ts)
        demand = self._demand.get(key, 0)
        supply = self._supply.get(key, 0)
        if supply == 0:
            return math.inf if demand > 0 else 0.0
        return demand / supply

    def zone_of(self, location: GeoPoint) -> Tuple[int, int]:
        """The (row, col) surge zone of a location."""
        cfg = self.config
        return cfg.bounding_box.cell_index(location, cfg.zone_rows, cfg.zone_cols)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _key(self, location: GeoPoint, ts: float) -> ZoneWindow:
        row, col = self.zone_of(location)
        window = int(ts // self.config.window_s)
        return (row, col, window)

    def _quantise(self, value: float) -> float:
        quantum = self.config.quantum
        if quantum <= 0:
            return value
        return round(round(value / quantum) * quantum, 10)


@dataclass(frozen=True, slots=True)
class SurgePricing(PricingPolicy):
    """Eq. (15) with the multiplier supplied by a :class:`SurgeEngine`."""

    engine: SurgeEngine
    schedule: FareSchedule = FareSchedule()

    def price(self, quote: RideQuote) -> float:
        alpha = self.engine.multiplier(quote.origin, quote.request_ts)
        return alpha * self.schedule.fare(quote.distance_km, quote.duration_s)

    def surge_multiplier(self, quote: RideQuote) -> float:
        return self.engine.multiplier(quote.origin, quote.request_ts)
