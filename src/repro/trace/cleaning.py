"""Trace cleaning.

The paper cleans the raw Porto trace with pandas before running experiments.
Pandas is not available in this environment, so this module provides the
equivalent pure-Python filters: dropping degenerate trips, clipping physically
implausible speeds, restricting to the service area, and de-duplicating trip
identifiers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence

from ..geo import BoundingBox
from .records import TripRecord


@dataclass(frozen=True, slots=True)
class CleaningConfig:
    """Thresholds for :func:`clean_trips`.

    The defaults mirror the implicit assumptions of the paper's evaluation:
    city-scale trips of at least one minute, at most three hours, with
    plausible urban driving speeds.
    """

    min_duration_s: float = 60.0
    max_duration_s: float = 3.0 * 3600.0
    min_distance_km: float = 0.2
    max_distance_km: float = 100.0
    max_speed_kmh: float = 120.0
    bounding_box: BoundingBox | None = None

    def __post_init__(self) -> None:
        if self.min_duration_s < 0 or self.max_duration_s <= self.min_duration_s:
            raise ValueError("invalid duration bounds")
        if self.min_distance_km < 0 or self.max_distance_km <= self.min_distance_km:
            raise ValueError("invalid distance bounds")
        if self.max_speed_kmh <= 0:
            raise ValueError("max_speed_kmh must be positive")


@dataclass(slots=True)
class CleaningReport:
    """Counts of trips removed by each filter, for auditability."""

    input_count: int = 0
    kept: int = 0
    dropped_duration: int = 0
    dropped_distance: int = 0
    dropped_speed: int = 0
    dropped_outside_area: int = 0
    dropped_duplicate: int = 0

    def as_dict(self) -> dict:
        return {
            "input_count": self.input_count,
            "kept": self.kept,
            "dropped_duration": self.dropped_duration,
            "dropped_distance": self.dropped_distance,
            "dropped_speed": self.dropped_speed,
            "dropped_outside_area": self.dropped_outside_area,
            "dropped_duplicate": self.dropped_duplicate,
        }


def clean_trips(
    trips: Iterable[TripRecord],
    config: CleaningConfig | None = None,
) -> tuple[List[TripRecord], CleaningReport]:
    """Apply the cleaning filters; return the kept trips and a report.

    Filters are applied in a fixed order (duplicate id, duration, distance,
    speed, service area) and each dropped trip is counted against the first
    filter that rejects it.
    """
    cfg = config or CleaningConfig()
    report = CleaningReport()
    seen_ids: set[str] = set()
    kept: List[TripRecord] = []

    for trip in trips:
        report.input_count += 1
        if trip.trip_id in seen_ids:
            report.dropped_duplicate += 1
            continue
        seen_ids.add(trip.trip_id)

        if not cfg.min_duration_s <= trip.duration_s <= cfg.max_duration_s:
            report.dropped_duration += 1
            continue
        if not cfg.min_distance_km <= trip.distance_km <= cfg.max_distance_km:
            report.dropped_distance += 1
            continue
        if trip.average_speed_kmh > cfg.max_speed_kmh:
            report.dropped_speed += 1
            continue
        if cfg.bounding_box is not None and not (
            cfg.bounding_box.contains(trip.origin)
            and cfg.bounding_box.contains(trip.destination)
        ):
            report.dropped_outside_area += 1
            continue

        kept.append(trip)
        report.kept += 1

    return kept, report


def first_n_by_time(trips: Sequence[TripRecord], count: int) -> List[TripRecord]:
    """The ``count`` earliest trips by start time (ties broken by trip id)."""
    if count < 0:
        raise ValueError("count must be non-negative")
    ordered = sorted(trips, key=lambda t: (t.start_ts, t.trip_id))
    return ordered[:count]
