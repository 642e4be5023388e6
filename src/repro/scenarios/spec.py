"""Declarative scenario specifications.

A :class:`ScenarioSpec` is the *plan* half of the scenario engine: a frozen,
hashable description of one city day — a base
:class:`~repro.trace.synthetic.TraceConfig` composed with a timeline of typed
events — that says nothing about *how* the workload is produced.  The
:class:`~repro.scenarios.compiler.ScenarioCompiler` lowers a spec
deterministically into the exact artifacts the execution stacks consume
(trips, priced tasks, a driver fleet, publish-ordered arrival batches), so
one spec drives the offline ``solve()`` path, the streamed
``solve_stream()`` path and every executor policy bit-identically.

Event vocabulary
----------------

========================  ====================================================
:class:`DemandSurge`      Extra demand in a time window, optionally
                          concentrated in a spatial footprint (a stadium
                          letting out, a festival, rain-induced hailing).
:class:`ZoneClosure`      No pickups originate inside a footprint during a
                          window (roadworks, a police cordon); demand is
                          displaced to the rest of the city, not destroyed.
:class:`SupplyShock`      Drivers join or leave mid-day (shift change,
                          strike); compiled into the fleet's working windows,
                          which both stacks already honour, so mid-stream
                          supply changes need no new execution machinery.
:class:`TravelSlowdown`   City-wide speed (and optionally cost) scaling —
                          day-level (a rainy city) or windowed (rush-hour
                          congestion, compiled into a time-indexed travel
                          model).
:class:`HotspotMigration` A fraction of the demand that would originate in
                          one footprint originates in another during a
                          window (commute corridors, event build-up).
========================  ====================================================

Footprints are *fractional* (:class:`SpatialFootprint`): expressed in [0, 1]
coordinates of the service region, so the same spec runs unchanged on Porto,
NYC or any custom bounding box.  Times are hours of the simulated day.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Tuple, Union

from ..geo import BoundingBox
from ..trace.drivers import WorkingModel
from ..trace.synthetic import TraceConfig

#: Hours in the simulated day (events are clipped to it).
DAY_HOURS = 24.0


@dataclass(frozen=True, slots=True)
class SpatialFootprint:
    """A rectangular sub-area of the service region, in fractional coords.

    ``south``/``west``/``north``/``east`` are fractions in [0, 1] of the
    region's latitude/longitude extent, so a footprint is city-independent;
    :meth:`to_box` resolves it against a concrete region.
    """

    south: float
    west: float
    north: float
    east: float

    def __post_init__(self) -> None:
        for name in ("south", "west", "north", "east"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"footprint {name} must be in [0, 1], got {value}")
        if self.south >= self.north:
            raise ValueError("footprint south must be strictly below north")
        if self.west >= self.east:
            raise ValueError("footprint west must be strictly below east")

    def to_box(self, region: BoundingBox) -> BoundingBox:
        """Resolve the fractional footprint against a concrete region."""
        lat_span = region.north - region.south
        lon_span = region.east - region.west
        return BoundingBox(
            south=region.south + self.south * lat_span,
            west=region.west + self.west * lon_span,
            north=region.south + self.north * lat_span,
            east=region.west + self.east * lon_span,
        )


def _check_window(start_hour: float, end_hour: float) -> None:
    if not 0.0 <= start_hour < end_hour <= DAY_HOURS:
        raise ValueError(
            f"event window must satisfy 0 <= start < end <= {DAY_HOURS}, "
            f"got [{start_hour}, {end_hour}]"
        )


@dataclass(frozen=True, slots=True)
class DemandSurge:
    """Demand multiplied by ``intensity`` during ``[start_hour, end_hour)``.

    The surge both *adds volume* (the compiled trip count grows with the
    extra demand mass) and, when a ``footprint`` is given, *concentrates*
    the extra trips inside it: the surplus fraction ``(k-1)/k`` of in-window
    pickups is drawn from the footprint, the base demand keeps its usual
    spatial distribution.
    """

    start_hour: float
    end_hour: float
    intensity: float
    footprint: SpatialFootprint | None = None

    def __post_init__(self) -> None:
        _check_window(self.start_hour, self.end_hour)
        if self.intensity <= 0.0:
            raise ValueError("intensity must be positive")


@dataclass(frozen=True, slots=True)
class ZoneClosure:
    """No pickups originate inside ``footprint`` during the window.

    Demand is displaced, not destroyed: a pickup that would fall inside the
    closed zone is deterministically resampled from the rest of the city
    (riders walk to the cordon's edge and hail from there).
    """

    start_hour: float
    end_hour: float
    footprint: SpatialFootprint

    def __post_init__(self) -> None:
        _check_window(self.start_hour, self.end_hour)


@dataclass(frozen=True, slots=True)
class SupplyShock:
    """Drivers join (positive) or leave (negative) the fleet at ``at_hour``.

    Exactly one of ``driver_delta`` (absolute head count) or
    ``driver_fraction`` (fraction of the spec's fleet, so scaled specs keep
    their shape) must be non-zero.  Joining drivers work
    ``duration_hours``-long shifts from ``at_hour``; leaving drivers have
    their shifts truncated at ``at_hour`` (drivers whose shift had not yet
    started simply never show up).  Because both execution stacks already
    enforce driver working windows, a compiled supply shock changes
    mid-stream capacity without any new runtime machinery — and therefore
    without touching the stream==offline parity contract.
    """

    at_hour: float
    driver_delta: int = 0
    driver_fraction: float = 0.0
    duration_hours: float = 4.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.at_hour <= DAY_HOURS:
            raise ValueError("at_hour must be within the day")
        if (self.driver_delta == 0) == (self.driver_fraction == 0.0):
            raise ValueError(
                "exactly one of driver_delta and driver_fraction must be non-zero"
            )
        if not -1.0 <= self.driver_fraction <= 1.0:
            raise ValueError("driver_fraction must be in [-1, 1]")
        if self.duration_hours <= 0.0:
            raise ValueError("duration_hours must be positive")

    def resolved_delta(self, fleet_size: int) -> int:
        """The head-count change for a concrete fleet size."""
        if self.driver_delta != 0:
            return self.driver_delta
        return round(self.driver_fraction * fleet_size)


@dataclass(frozen=True, slots=True)
class TravelSlowdown:
    """City-wide travel-model scaling, for the whole day or a time window.

    ``speed_factor`` scales the average speed (0.7 ≈ a rainy day),
    ``cost_factor`` the per-km cost.  Multiple slowdowns compose
    multiplicatively.  The default window is the whole day, which scales
    the :class:`~repro.geo.TravelModel`'s base rates; a narrower
    ``[start_hour, end_hour)`` window fills the model's per-slot time
    profile, so the factors apply only inside the window (rush-hour
    congestion, a storm cell passing through).  Task durations/costs
    resolve the rates at each task's pickup deadline — a pure function of
    (task, model) — so the incremental-maintenance and stream == replay
    parity contracts hold under windowed slowdowns too.
    """

    speed_factor: float
    cost_factor: float = 1.0
    start_hour: float = 0.0
    end_hour: float = DAY_HOURS

    def __post_init__(self) -> None:
        if self.speed_factor <= 0.0:
            raise ValueError("speed_factor must be positive")
        if self.cost_factor < 0.0:
            raise ValueError("cost_factor must be non-negative")
        _check_window(self.start_hour, self.end_hour)

    @property
    def is_day_level(self) -> bool:
        """Whether the slowdown covers the whole simulated day."""
        return self.start_hour == 0.0 and self.end_hour == DAY_HOURS


@dataclass(frozen=True, slots=True)
class HotspotMigration:
    """Demand mass moves between footprints during a window.

    A pickup that would originate inside ``source`` during the window
    instead originates inside ``target`` with probability ``fraction``.
    """

    start_hour: float
    end_hour: float
    source: SpatialFootprint
    target: SpatialFootprint
    fraction: float

    def __post_init__(self) -> None:
        _check_window(self.start_hour, self.end_hour)
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")


ScenarioEvent = Union[
    DemandSurge, ZoneClosure, SupplyShock, TravelSlowdown, HotspotMigration
]

#: Event classes accepted in :attr:`ScenarioSpec.events` (order matters:
#: samplers apply footprint events in spec order, so the spec is the single
#: source of deterministic tie-breaking).
EVENT_TYPES = (DemandSurge, ZoneClosure, SupplyShock, TravelSlowdown, HotspotMigration)


@dataclass(frozen=True, slots=True)
class ScenarioSpec:
    """One declarative city day: a base trace config plus an event timeline.

    Frozen and hashable; compilation is a pure function of ``(spec, seed)``
    (the seed lives *in* the spec), which is what makes every scenario
    reproducible across machines, executors and sessions.
    """

    name: str
    description: str = ""
    #: Base trace configuration: service region, duration/speed marginals,
    #: downtown concentration.  The spec's own ``seed`` supersedes the
    #: config's for compilation.
    base: TraceConfig = TraceConfig()
    #: Demand volume before events scale it (trips generated for the day).
    trip_count: int = 600
    #: Fleet size before supply shocks change it.
    driver_count: int = 60
    working_model: WorkingModel = WorkingModel.HITCHHIKING
    events: Tuple[ScenarioEvent, ...] = ()
    seed: int = 2017
    #: Dispatch window of the streamed run (and the stream schedule).
    window_s: float = 60.0
    #: Static surge multiplier of the pricing policy (Eq. 15's alpha).
    surge_multiplier: float = 1.2

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a scenario needs a name")
        if self.trip_count < 1:
            raise ValueError("trip_count must be >= 1")
        if self.driver_count < 1:
            raise ValueError("driver_count must be >= 1")
        if self.window_s <= 0:
            raise ValueError("window_s must be positive")
        for event in self.events:
            if not isinstance(event, EVENT_TYPES):
                raise TypeError(
                    f"unsupported event type {type(event).__name__!r}; "
                    f"expected one of {[t.__name__ for t in EVENT_TYPES]}"
                )
        object.__setattr__(self, "events", tuple(self.events))

    @property
    def region(self) -> BoundingBox:
        """The service region every footprint resolves against."""
        return self.base.bounding_box

    def with_scale(
        self, trip_count: int | None = None, driver_count: int | None = None
    ) -> "ScenarioSpec":
        """The same scenario at a different size (tests, CI smokes, sweeps).

        Events scale with it: footprints are fractional and supply shocks
        expressed as fleet fractions resolve against the new fleet.
        """
        return replace(
            self,
            trip_count=self.trip_count if trip_count is None else trip_count,
            driver_count=self.driver_count if driver_count is None else driver_count,
        )

    def with_seed(self, seed: int) -> "ScenarioSpec":
        """The same scenario under a different random seed."""
        return replace(self, seed=seed)

    def events_of_type(self, event_type: type) -> Tuple[ScenarioEvent, ...]:
        """The spec's events of one type, in timeline (spec) order."""
        return tuple(e for e in self.events if isinstance(e, event_type))
