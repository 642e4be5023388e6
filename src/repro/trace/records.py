"""Record types for taxi-trace data.

A :class:`TripRecord` is one customer trip (one row of the ECML/PKDD-15 Porto
trace, or one synthetic trip).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..geo import GeoPoint, polyline_length_km


@dataclass(frozen=True, slots=True)
class TripRecord:
    """A single completed taxi trip.

    Attributes
    ----------
    trip_id:
        Unique identifier of the trip.
    driver_id:
        Identifier of the driver (taxi) that served the trip.
    start_ts:
        Trip start time, seconds since the start of the trace epoch.
    end_ts:
        Trip end time, seconds since the start of the trace epoch.
    origin / destination:
        Pickup and drop-off locations.
    distance_km:
        Driven distance.  For Porto records this is the polyline length; for
        synthetic records it is drawn from the distance distribution.
    polyline:
        Optional raw GPS trajectory (15-second samples in the Porto trace).
    """

    trip_id: str
    driver_id: str
    start_ts: float
    end_ts: float
    origin: GeoPoint
    destination: GeoPoint
    distance_km: float
    polyline: Optional[Sequence[GeoPoint]] = None

    def __post_init__(self) -> None:
        if self.end_ts < self.start_ts:
            raise ValueError(
                f"trip {self.trip_id!r}: end_ts {self.end_ts} precedes start_ts {self.start_ts}"
            )
        if self.distance_km < 0:
            raise ValueError(f"trip {self.trip_id!r}: negative distance")

    @property
    def duration_s(self) -> float:
        """Trip duration in seconds."""
        return self.end_ts - self.start_ts

    @property
    def duration_min(self) -> float:
        """Trip duration in minutes."""
        return self.duration_s / 60.0

    @property
    def average_speed_kmh(self) -> float:
        """Mean speed over the trip; 0 for zero-duration trips."""
        if self.duration_s <= 0:
            return 0.0
        return self.distance_km / (self.duration_s / 3600.0)

    @classmethod
    def from_polyline(
        cls,
        trip_id: str,
        driver_id: str,
        start_ts: float,
        polyline: Sequence[GeoPoint],
        sample_interval_s: float = 15.0,
    ) -> "TripRecord":
        """Build a record from a GPS polyline, Porto-style.

        The Porto trace samples positions every 15 seconds, so the duration is
        ``(len(polyline) - 1) * 15`` and the distance is the polyline length.
        """
        if len(polyline) < 2:
            raise ValueError(f"trip {trip_id!r}: polyline needs at least two points")
        duration = (len(polyline) - 1) * sample_interval_s
        return cls(
            trip_id=trip_id,
            driver_id=driver_id,
            start_ts=start_ts,
            end_ts=start_ts + duration,
            origin=polyline[0],
            destination=polyline[-1],
            distance_km=polyline_length_km(polyline),
            polyline=tuple(polyline),
        )
