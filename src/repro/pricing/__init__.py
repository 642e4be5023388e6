"""Pricing substrate: fare schedules and surge pricing."""

from .base import PricingPolicy, RideQuote
from .linear import FareSchedule, LinearPricing
from .surge import SurgeConfig, SurgeEngine, SurgePricing

__all__ = [
    "PricingPolicy",
    "RideQuote",
    "FareSchedule",
    "LinearPricing",
    "SurgeConfig",
    "SurgeEngine",
    "SurgePricing",
]
