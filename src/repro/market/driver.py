"""Driver (worker) entity.

Section III-A of the paper: each driver ``n`` reveals her travel plan before
she starts working — a source location ``s_n`` at time ``t⁻_n`` and a
destination location ``d_n`` at time ``t⁺_n`` with ``t⁻_n < t⁺_n``.  The
special case ``s_n == d_n`` is the "home-work-home" working model; distinct
endpoints correspond to the "hitchhiking" model.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite

from ..geo import GeoPoint


@dataclass(frozen=True, slots=True)
class Driver:
    """A driver's daily travel plan.

    Attributes
    ----------
    driver_id:
        Stable identifier of the driver.
    source:
        Where the driver starts her working period (e.g. home address).
    destination:
        Where she must end her working period.
    start_ts:
        ``t⁻_n`` — earliest time she is on the road, in seconds.
    end_ts:
        ``t⁺_n`` — latest time by which she must reach her destination.
    """

    driver_id: str
    source: GeoPoint
    destination: GeoPoint
    start_ts: float
    end_ts: float

    def __post_init__(self) -> None:
        if not (isfinite(self.start_ts) and isfinite(self.end_ts)):
            raise ValueError(f"driver {self.driver_id!r}: start_ts and end_ts must be finite")
        if self.end_ts <= self.start_ts:
            raise ValueError(
                f"driver {self.driver_id!r}: end_ts must be strictly after start_ts"
            )

    @property
    def working_duration_s(self) -> float:
        """Length of the working period in seconds."""
        return self.end_ts - self.start_ts

    def with_window(self, start_ts: float, end_ts: float) -> "Driver":
        """A copy of this driver with a different working window."""
        return Driver(
            driver_id=self.driver_id,
            source=self.source,
            destination=self.destination,
            start_ts=start_ts,
            end_ts=end_ts,
        )
