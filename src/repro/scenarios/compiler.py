"""Deterministic lowering of a :class:`~repro.scenarios.spec.ScenarioSpec`.

The compiler is the bridge between the declarative scenario layer and the
execution stacks: it turns a spec into exactly the artifacts they already
consume —

* a :class:`~repro.trace.records.TripRecord` day (through
  :class:`~repro.trace.synthetic.PortoLikeTraceGenerator` and its demand
  hooks, so scenario demand shares the calibrated Porto marginals),
* a priced task set and a driver fleet inside one
  :class:`~repro.market.instance.MarketInstance` (whose cost model carries
  any :class:`~repro.scenarios.spec.TravelSlowdown` scaling),
* publish-ordered arrival batches
  (:func:`~repro.online.batch.stream_schedule`) for the streamed path.

**Determinism contract:** compilation is a pure function of the spec (the
seed lives in the spec) — same spec, same artifacts, bit for bit, on any
machine.  Every random draw comes from :class:`random.Random` instances
seeded from ``(spec.name, spec.seed)``, events are applied in spec order,
and no wall-clock or environment state is read.  Because the compiled
instance and batches are ordinary market inputs, the existing parity
contracts (stream == replay, serial == process, shared pool == own pool)
extend to every scenario with no new execution machinery
(``tests/scenarios/test_parity.py`` pins this per built-in scenario).

Event lowering
--------------

=================  ==========================================================
DemandSurge        Scales the generator's slot weights (15-minute slots) in
                   the window — which also grows the compiled trip count by
                   the added mass — and redirects the surplus fraction
                   ``(k-1)/k`` of in-window pickups into the footprint.
ZoneClosure        Pickup sampler resamples (bounded, deterministic) any
                   in-window pickup that falls inside the footprint;
                   a final deterministic nudge guarantees termination.
SupplyShock        Rewrites the fleet: joining drivers get fresh shifts
                   starting at the shock; leaving drivers have their windows
                   truncated (or are dropped when their shift had not
                   started) — both stacks enforce windows already.
TravelSlowdown     Day-level events compose multiplicatively into the travel
                   model's base rates via
                   :meth:`~repro.geo.distance.TravelModel.scaled`; windowed
                   events fill its per-slot time profile.
HotspotMigration   Pickup sampler moves a fraction of in-window demand from
                   the source footprint into the target footprint.
=================  ==========================================================
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Sequence, Tuple

from ..geo import BoundingBox, GeoPoint, default_travel_model
from ..market.cost import MarketCostModel
from ..market.driver import Driver
from ..market.instance import MarketInstance, tasks_from_trips
from ..market.task import Task
from ..online.batch import stream_schedule
from ..pricing import FareSchedule, LinearPricing
from ..trace.drivers import DriverGenerationConfig, DriverScheduleGenerator, WorkingModel
from ..trace.records import TripRecord
from ..trace.synthetic import (
    DIURNAL_WEIGHTS,
    PortoLikeTraceGenerator,
    sample_demand_point,
)
from .spec import (
    DemandSurge,
    HotspotMigration,
    ScenarioSpec,
    SupplyShock,
    TravelSlowdown,
    ZoneClosure,
)

#: Demand-profile resolution: 15-minute slots (96 per day), fine enough for
#: sharp surges while staying a clean multiple of the hourly base profile.
SLOT_COUNT = 96

#: Bounded retries before the closure sampler nudges a point outside
#: deterministically (termination guarantee).
_CLOSURE_RETRIES = 16


@dataclass(frozen=True)
class CompiledScenario:
    """The executable artifacts one spec lowers to.

    Everything the two stacks need: ``instance`` feeds
    ``DistributedCoordinator.solve`` (and any offline solver) directly, and
    :meth:`arrival_batches` feeds ``solve_stream`` /
    ``open_stream().append_batch()`` the same tasks as a publish-ordered
    live stream — so scenario metrics share denominators across modes.
    """

    spec: ScenarioSpec
    trips: Tuple[TripRecord, ...]
    drivers: Tuple[Driver, ...]
    instance: MarketInstance

    @property
    def tasks(self) -> Tuple[Task, ...]:
        return self.instance.tasks

    @property
    def region(self) -> BoundingBox:
        return self.spec.region

    def arrival_batches(self, window_s: Optional[float] = None) -> List[List[Task]]:
        """Publish-ordered arrival batches, one per dispatch window.

        Carries *every* task (non-publishable ones ride along), exactly like
        ``solve_stream``'s default schedule, so a streamed run over these
        batches is the offline replay's sharded twin.
        """
        return stream_schedule(self.tasks, window_s or self.spec.window_s)

    def checksum(self) -> str:
        """A stable digest of the compiled artifacts.

        Two compilations of the same spec produce the same checksum on any
        machine (``repr`` of floats round-trips exactly); the determinism
        tests and the scenario benchmark pin compile reproducibility with
        it.
        """
        digest = hashlib.sha256()
        for trip in self.trips:
            digest.update(
                f"{trip.trip_id}|{trip.driver_id}|{trip.start_ts!r}|{trip.end_ts!r}|"
                f"{trip.origin.lat!r},{trip.origin.lon!r}|"
                f"{trip.destination.lat!r},{trip.destination.lon!r}|"
                f"{trip.distance_km!r}\n".encode()
            )
        for driver in self.drivers:
            digest.update(
                f"{driver.driver_id}|{driver.start_ts!r}|{driver.end_ts!r}|"
                f"{driver.source.lat!r},{driver.source.lon!r}|"
                f"{driver.destination.lat!r},{driver.destination.lon!r}\n".encode()
            )
        for task in self.tasks:
            digest.update(f"{task.task_id}|{task.publish_ts!r}|{task.price!r}\n".encode())
        model = self.instance.cost_model.travel_model
        digest.update(f"{model.speed_kmh!r}|{model.cost_per_km!r}".encode())
        if not model.is_flat:
            digest.update(
                f"|{model.window_s!r}|{model.speed_factors!r}|"
                f"{model.cost_factors!r}|{model.origin_ts!r}".encode()
            )
        return digest.hexdigest()


class ScenarioCompiler:
    """Lowers one spec; stateless between :meth:`compile` calls."""

    def __init__(self, spec: ScenarioSpec) -> None:
        self.spec = spec

    # ------------------------------------------------------------------
    # demand profile
    # ------------------------------------------------------------------
    def slot_weights(self) -> List[float]:
        """The day's demand profile: the diurnal base resampled to
        :data:`SLOT_COUNT` slots, scaled by every surge's window overlap."""
        per_hour = SLOT_COUNT // 24
        weights = [float(DIURNAL_WEIGHTS[slot // per_hour]) for slot in range(SLOT_COUNT)]
        slot_s = 86400.0 / SLOT_COUNT
        for event in self.spec.events_of_type(DemandSurge):
            start_s = event.start_hour * 3600.0
            end_s = event.end_hour * 3600.0
            for slot in range(SLOT_COUNT):
                lo = slot * slot_s
                hi = lo + slot_s
                overlap = max(0.0, min(hi, end_s) - max(lo, start_s)) / slot_s
                if overlap > 0.0:
                    weights[slot] *= 1.0 + (event.intensity - 1.0) * overlap
        return weights

    def effective_trip_count(self) -> int:
        """Trip volume after surges add demand mass.

        The base count corresponds to the base profile's mass; scaling the
        count by the mass ratio makes a 2x surge over two hours actually
        put ~2x the trips into those hours instead of just reshaping a
        fixed-size day.
        """
        per_hour = SLOT_COUNT // 24
        base = [float(DIURNAL_WEIGHTS[slot // per_hour]) for slot in range(SLOT_COUNT)]
        factor = sum(self.slot_weights()) / sum(base)
        return max(1, round(self.spec.trip_count * factor))

    # ------------------------------------------------------------------
    # spatial sampling
    # ------------------------------------------------------------------
    def _base_pickup(self, rng: random.Random) -> GeoPoint:
        """The generator's default spatial model (the shared
        :func:`~repro.trace.synthetic.sample_demand_point`), so the event
        sampler composes with base demand draw-for-draw."""
        return sample_demand_point(
            rng, self.spec.base.bounding_box, self.spec.base.downtown_fraction
        )

    @staticmethod
    def _sample_in_box(rng: random.Random, box: BoundingBox) -> GeoPoint:
        """A clustered draw inside a footprint box (events concentrate
        demand, they do not spread it uniformly)."""
        return box.sample_gaussian(rng, sigma_fraction=0.35)

    @staticmethod
    def _nudge_outside(point: GeoPoint, closed: BoundingBox, region: BoundingBox) -> GeoPoint:
        """Deterministically move ``point`` just past the nearest edge of a
        closed box (termination fallback of the closure resampler); returns
        the point unchanged when the closure spans the whole region."""
        pad_lat = (region.north - region.south) * 1e-3
        pad_lon = (region.east - region.west) * 1e-3
        for candidate in (
            GeoPoint(closed.south - pad_lat, point.lon),
            GeoPoint(closed.north + pad_lat, point.lon),
            GeoPoint(point.lat, closed.west - pad_lon),
            GeoPoint(point.lat, closed.east + pad_lon),
        ):
            clamped = region.clamp(candidate)
            if not closed.contains(clamped):
                return clamped
        return point

    def origin_sampler(self) -> Callable[[random.Random, float], Optional[GeoPoint]]:
        """The pickup-location hook for the trace generator.

        Resolves every footprint once, then applies — in spec order, which
        is the determinism tie-break — surge concentration, hotspot
        migration and zone closure to each trip's pickup.  Returns ``None``
        (generator default) only when the spec has no spatial events at
        all, so specs without footprints compile through the exact default
        path.
        """
        region = self.spec.region
        surges = [
            (e.start_hour * 3600.0, e.end_hour * 3600.0, e.intensity, e.footprint.to_box(region))
            for e in self.spec.events_of_type(DemandSurge)
            if e.footprint is not None
        ]
        migrations = [
            (
                e.start_hour * 3600.0,
                e.end_hour * 3600.0,
                e.source.to_box(region),
                e.target.to_box(region),
                e.fraction,
            )
            for e in self.spec.events_of_type(HotspotMigration)
        ]
        closures = [
            (e.start_hour * 3600.0, e.end_hour * 3600.0, e.footprint.to_box(region))
            for e in self.spec.events_of_type(ZoneClosure)
        ]
        if not surges and not migrations and not closures:
            return lambda _rng, _t: None

        def sample(rng: random.Random, t: float) -> GeoPoint:
            point: Optional[GeoPoint] = None
            for start_s, end_s, intensity, box in surges:
                if start_s <= t < end_s and intensity > 1.0:
                    surplus = (intensity - 1.0) / intensity
                    if rng.random() < surplus:
                        point = self._sample_in_box(rng, box)
                        break
            if point is None:
                point = self._base_pickup(rng)
            for start_s, end_s, source_box, target_box, fraction in migrations:
                if start_s <= t < end_s and source_box.contains(point):
                    if rng.random() < fraction:
                        point = self._sample_in_box(rng, target_box)
            # Closures are enforced jointly: resampling against the *union*
            # of active closed boxes, so escaping one closure can never land
            # a pickup inside another.
            active = [closed for start_s, end_s, closed in closures if start_s <= t < end_s]
            if active:
                for _ in range(_CLOSURE_RETRIES):
                    if not any(box.contains(point) for box in active):
                        break
                    point = self._base_pickup(rng)
                # Deterministic fallback: nudge out of whichever closed box
                # still holds the point, a few passes in case a nudge crosses
                # into a neighbouring closure (best-effort when closures tile
                # the whole region).
                for _ in range(len(active) + 1):
                    containing = next(
                        (box for box in active if box.contains(point)), None
                    )
                    if containing is None:
                        break
                    point = self._nudge_outside(point, containing, region)
            return point

        return sample

    # ------------------------------------------------------------------
    # supply
    # ------------------------------------------------------------------
    def _apply_supply_shocks(self, drivers: Sequence[Driver]) -> Tuple[Driver, ...]:
        """Rewrite the fleet's working windows per the supply timeline."""
        shocks = self.spec.events_of_type(SupplyShock)
        fleet: List[Driver] = list(drivers)
        if not shocks:
            return tuple(fleet)
        rng = random.Random(f"scenario:{self.spec.name}:{self.spec.seed}:supply")
        box = self.spec.region
        downtown = self.spec.base.downtown_fraction

        def sample_point() -> GeoPoint:
            return sample_demand_point(rng, box, downtown)

        for shock_index, shock in enumerate(shocks):
            at_s = shock.at_hour * 3600.0
            delta = shock.resolved_delta(self.spec.driver_count)
            if delta > 0:
                for i in range(delta):
                    source = sample_point()
                    if self.spec.working_model is WorkingModel.HOME_WORK_HOME:
                        destination = source
                    else:
                        destination = sample_point()
                    fleet.append(
                        Driver(
                            driver_id=f"{self.spec.name}-shock{shock_index}-{i:04d}",
                            source=source,
                            destination=destination,
                            start_ts=at_s,
                            end_ts=at_s + shock.duration_hours * 3600.0,
                        )
                    )
            elif delta < 0:
                # Whoever is (or would be) on the road past the shock can
                # strike; sampled over sorted ids so the draw is stable.
                candidates = sorted(
                    (d for d in fleet if d.end_ts > at_s), key=lambda d: d.driver_id
                )
                leaving = rng.sample(candidates, min(-delta, len(candidates)))
                leaving_ids = {d.driver_id for d in leaving}
                rewritten: List[Driver] = []
                for driver in fleet:
                    if driver.driver_id not in leaving_ids:
                        rewritten.append(driver)
                    elif driver.start_ts < at_s:
                        rewritten.append(driver.with_window(driver.start_ts, at_s))
                    # else: the shift never started — the driver stays home.
                fleet = rewritten
        return tuple(fleet)

    # ------------------------------------------------------------------
    # travel model
    # ------------------------------------------------------------------
    def slowdown_factors(self) -> Tuple[float, float]:
        """``(speed_factor, cost_factor)`` composed over every *day-level*
        slowdown.

        Applied to *both* the travel model and the trace generator's trip
        speed: rain slows the recorded rides exactly as it slows the empty
        drives, so a trip's estimated in-task time stays consistent with
        its recorded window (scaling only the model would silently make
        every recorded trip infeasible).

        Windowed slowdowns are excluded here — they compile into the travel
        model's time profile (:meth:`slowdown_profile`) and deliberately do
        *not* rescale the recorded trips: the storm cell slows the empty
        drives and the model's duration estimates inside its window, while
        the trace keeps its recorded history.
        """
        speed_factor = 1.0
        cost_factor = 1.0
        for event in self.spec.events_of_type(TravelSlowdown):
            if event.is_day_level:
                speed_factor *= event.speed_factor
                cost_factor *= event.cost_factor
        return speed_factor, cost_factor

    def slowdown_profile(self) -> Optional[Tuple[Tuple[float, ...], Tuple[float, ...]]]:
        """Per-slot ``(speed_factors, cost_factors)`` of the windowed
        slowdowns, at the demand profile's :data:`SLOT_COUNT` resolution —
        or ``None`` when every slowdown is day-level (the historical case).

        A slot carries an event's factors iff its midpoint lies inside the
        event's ``[start_hour, end_hour)`` window; events compose
        multiplicatively per slot.
        """
        windowed = [
            event
            for event in self.spec.events_of_type(TravelSlowdown)
            if not event.is_day_level
        ]
        if not windowed:
            return None
        slot_s = 86400.0 / SLOT_COUNT
        speed = [1.0] * SLOT_COUNT
        cost = [1.0] * SLOT_COUNT
        for event in windowed:
            start_s = event.start_hour * 3600.0
            end_s = event.end_hour * 3600.0
            for slot in range(SLOT_COUNT):
                mid = (slot + 0.5) * slot_s
                if start_s <= mid < end_s:
                    speed[slot] *= event.speed_factor
                    cost[slot] *= event.cost_factor
        return tuple(speed), tuple(cost)

    def cost_model(self) -> MarketCostModel:
        """The market cost model, with every slowdown composed in.

        Day-level slowdowns scale the default
        :class:`~repro.geo.TravelModel`'s base rates; windowed slowdowns
        fill its time profile, one window per demand slot.
        """
        model = default_travel_model().scaled(*self.slowdown_factors())
        profile = self.slowdown_profile()
        if profile is not None:
            speed_factors, cost_factors = profile
            model = replace(
                model,
                window_s=86400.0 / SLOT_COUNT,
                speed_factors=speed_factors,
                cost_factors=cost_factors,
            )
        return MarketCostModel(model)

    # ------------------------------------------------------------------
    # compilation
    # ------------------------------------------------------------------
    def compile(self) -> CompiledScenario:
        """Lower the spec into trips, a fleet and a ready-to-run instance."""
        spec = self.spec
        base = spec.base
        speed_factor, _cost_factor = self.slowdown_factors()
        trace_config = replace(
            base, speed_kmh=base.speed_kmh * speed_factor, seed=spec.seed
        )
        generator = PortoLikeTraceGenerator(
            trace_config,
            slot_weights=self.slot_weights(),
            origin_sampler=self.origin_sampler(),
        )
        trips = tuple(generator.generate_day(0, trip_count=self.effective_trip_count()))

        driver_generator = DriverScheduleGenerator(
            DriverGenerationConfig(
                bounding_box=spec.region,
                working_model=spec.working_model,
                seed=spec.seed,
            )
        )
        drivers = self._apply_supply_shocks(
            driver_generator.generate_from_trips(trips, count=spec.driver_count)
        )

        pricing = LinearPricing(schedule=FareSchedule(), alpha=spec.surge_multiplier)
        tasks = tasks_from_trips(trips, pricing=pricing)
        instance = MarketInstance.create(
            drivers=drivers, tasks=tasks, cost_model=self.cost_model()
        )
        return CompiledScenario(
            spec=spec, trips=trips, drivers=drivers, instance=instance
        )


def compile_scenario(spec: ScenarioSpec) -> CompiledScenario:
    """Convenience wrapper: ``ScenarioCompiler(spec).compile()``."""
    return ScenarioCompiler(spec).compile()
