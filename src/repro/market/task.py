"""Task (customer order) entity.

Section III-A of the paper: each task ``m`` has a publishing time ``t̄_m``, a
source ``s̄_m`` with estimated start time ``t̄⁻_m``, a destination ``d̄_m`` with
estimated end time ``t̄⁺_m`` (``t̄_m < t̄⁻_m < t̄⁺_m``), a price ``p_m``
calculated by the platform (the driver's payoff) and the customer's
willingness to pay ``b_m``.  A task is only published when ``p_m <= b_m``.

In the online scenario the estimated times act as deadlines: the task may
start before ``t̄⁻_m`` and finish before ``t̄⁺_m``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import isfinite
from typing import Optional

from ..geo import GeoPoint


@dataclass(frozen=True, slots=True)
class Task:
    """A customer order in the two-sided market."""

    task_id: str
    publish_ts: float
    source: GeoPoint
    destination: GeoPoint
    #: ``t̄⁻_m`` — deadline for the pickup.
    start_deadline_ts: float
    #: ``t̄⁺_m`` — deadline for the drop-off.
    end_deadline_ts: float
    #: ``p_m`` — driver payoff set by the platform's pricing mechanism.
    price: float
    #: ``b_m`` — customer's willingness to pay (defaults to the price, i.e.
    #: zero consumer surplus, when no WTP model is supplied).
    wtp: Optional[float] = None
    #: Driven distance from source to destination, if known from the trace.
    distance_km: Optional[float] = None

    def __post_init__(self) -> None:
        # NaN and +-inf pass every comparison below (and NaN is the wire's
        # "not supplied" for wtp and distance).
        if not (
            isfinite(self.publish_ts) and isfinite(self.start_deadline_ts)
            and isfinite(self.end_deadline_ts) and isfinite(self.price)
            and (self.wtp is None or isfinite(self.wtp))
            and (self.distance_km is None or isfinite(self.distance_km))
        ):
            raise ValueError(
                f"task {self.task_id!r}: times, price, wtp and distance must be finite"
            )
        if not self.publish_ts <= self.start_deadline_ts:
            raise ValueError(
                f"task {self.task_id!r}: publish time must not exceed start deadline"
            )
        if not self.start_deadline_ts < self.end_deadline_ts:
            raise ValueError(
                f"task {self.task_id!r}: start deadline must precede end deadline"
            )
        if self.price < 0:
            raise ValueError(f"task {self.task_id!r}: price must be non-negative")
        if self.wtp is not None and self.wtp < 0:
            raise ValueError(f"task {self.task_id!r}: wtp must be non-negative")
        if self.distance_km is not None and self.distance_km < 0:
            raise ValueError(f"task {self.task_id!r}: distance must be non-negative")

    @property
    def valuation(self) -> float:
        """``b_m`` if a WTP was supplied, otherwise ``p_m``."""
        return self.price if self.wtp is None else self.wtp

    @property
    def consumer_surplus(self) -> float:
        """``b_m - p_m`` — non-negative for any publishable task."""
        return self.valuation - self.price

    @property
    def is_publishable(self) -> bool:
        """Individual rationality of the customer: ``p_m <= b_m``."""
        return self.price <= self.valuation + 1e-9

    @property
    def ride_window_s(self) -> float:
        """``t̄⁺_m − t̄⁻_m`` — the window available to complete the ride."""
        return self.end_deadline_ts - self.start_deadline_ts

    def with_price(self, price: float, wtp: Optional[float] = None) -> "Task":
        """Copy of this task re-priced by a different pricing policy."""
        return replace(self, price=price, wtp=self.wtp if wtp is None else wtp)
