"""Shared configuration and workload construction for the experiments.

Every figure of the paper's evaluation (Section VI) runs on the same
workload recipe: trips from one day of the Porto trace become tasks (priced
by the simplified surge fare of Eq. 15), driver travel plans are Monte-Carlo
generated in either the "hitchhiking" or the "home-work-home" working model,
and the driver count is swept while the task set stays fixed.  This module
centralises that recipe so that the per-figure experiment modules and the
benchmark harnesses stay small and consistent.

Two scales are provided:

* :data:`PAPER_SCALE` — the paper's own numbers (1000 tasks, 20-300 drivers).
* :data:`DEFAULT_SCALE` — a laptop-friendly reduction (250 tasks, 20-140
  drivers) that keeps every qualitative shape but runs the whole suite,
  including the LP bounds, in seconds to minutes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..geo import PORTO, BoundingBox
from ..market.instance import MarketInstance, tasks_from_trips
from ..pricing import FareSchedule, LinearPricing, PricingPolicy
from ..trace.cleaning import CleaningConfig, clean_trips, first_n_by_time
from ..trace.drivers import DriverGenerationConfig, DriverScheduleGenerator, WorkingModel
from ..trace.records import TripRecord
from ..trace.synthetic import PortoLikeTraceGenerator, TraceConfig


@dataclass(frozen=True, slots=True)
class ExperimentScale:
    """How big the swept workload is."""

    task_count: int
    driver_counts: Tuple[int, ...]
    trips_generated: int

    def __post_init__(self) -> None:
        if self.task_count < 1:
            raise ValueError("task_count must be >= 1")
        if not self.driver_counts:
            raise ValueError("driver_counts must not be empty")
        if any(c < 1 for c in self.driver_counts):
            raise ValueError("driver counts must be >= 1")
        if self.trips_generated < self.task_count:
            raise ValueError("trips_generated must be at least task_count")

    @property
    def max_drivers(self) -> int:
        return max(self.driver_counts)


#: The paper's own scale: 1000 tasks from one day, drivers swept 20 -> 300
#: (a 2% - 30% driver/task ratio).
PAPER_SCALE = ExperimentScale(
    task_count=1000,
    driver_counts=(20, 60, 100, 140, 180, 220, 260, 300),
    trips_generated=5000,
)

#: Reduced scale used by the default benchmark harness; the driver/task ratio
#: sweeps the same 2% - 30% range as the paper.
DEFAULT_SCALE = ExperimentScale(
    task_count=250,
    driver_counts=(5, 15, 30, 45, 60, 75),
    trips_generated=2500,
)

#: Tiny scale for unit/integration tests.
TINY_SCALE = ExperimentScale(
    task_count=40,
    driver_counts=(2, 6, 12),
    trips_generated=400,
)


@dataclass(frozen=True, slots=True)
class ExperimentConfig:
    """Full description of one experiment workload."""

    scale: ExperimentScale = DEFAULT_SCALE
    working_model: WorkingModel = WorkingModel.HITCHHIKING
    bounding_box: BoundingBox = PORTO
    surge_multiplier: float = 1.2
    trace_seed: int = 2017
    driver_seed: int = 7

    def pricing_policy(self) -> PricingPolicy:
        """Eq. (15) with the configured (static) surge multiplier."""
        return LinearPricing(schedule=FareSchedule(), alpha=self.surge_multiplier)


@dataclass(frozen=True)
class Workload:
    """A built workload: the day's trips, the priced tasks and the driver pool."""

    config: ExperimentConfig
    trips: Tuple[TripRecord, ...]
    base_instance: MarketInstance
    driver_pool: Tuple

    def instance_with_drivers(self, driver_count: int) -> MarketInstance:
        """The sweep instance for a given driver count (a prefix of the pool,
        so larger markets strictly contain smaller ones).  It shares the base
        instance's task network, built on the first read by any of them."""
        if driver_count < 1 or driver_count > len(self.driver_pool):
            raise ValueError(
                f"driver_count must be in [1, {len(self.driver_pool)}], got {driver_count}"
            )
        return self.base_instance.with_drivers(self.driver_pool[:driver_count])

    @property
    def task_count(self) -> int:
        return self.base_instance.task_count


def build_day_trips(config: ExperimentConfig) -> List[TripRecord]:
    """Generate and clean one synthetic day of trips for ``config``."""
    generator = PortoLikeTraceGenerator(
        TraceConfig(bounding_box=config.bounding_box, seed=config.trace_seed)
    )
    raw = generator.generate_day(0, trip_count=config.scale.trips_generated)
    cleaned, _report = clean_trips(raw, CleaningConfig(bounding_box=config.bounding_box))
    return first_n_by_time(cleaned, config.scale.task_count)


def build_workload(config: Optional[ExperimentConfig] = None) -> Workload:
    """Build the standard sweep workload for a configuration."""
    cfg = config or ExperimentConfig()
    trips = build_day_trips(cfg)
    tasks = tasks_from_trips(trips, pricing=cfg.pricing_policy())
    driver_generator = DriverScheduleGenerator(
        DriverGenerationConfig(
            bounding_box=cfg.bounding_box,
            working_model=cfg.working_model,
            seed=cfg.driver_seed,
        )
    )
    driver_pool = tuple(
        driver_generator.generate_from_trips(trips, count=cfg.scale.max_drivers)
    )
    base_instance = MarketInstance.create(drivers=driver_pool, tasks=tasks)
    return Workload(
        config=cfg,
        trips=tuple(trips),
        base_instance=base_instance,
        driver_pool=driver_pool,
    )
