"""Compiler lowering semantics + (spec, seed) determinism.

The hypothesis test is the satellite the ISSUE asks for: over *random*
specs — any mix of events, any seed — compiling twice yields identical
trips, drivers and tasks (checksummed), because compilation is a pure
function of the spec.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo import TravelModel
from repro.online.batch import stream_schedule
from repro.online.forecast import publish_slot_of
from repro.scenarios import (
    DemandSurge,
    HotspotMigration,
    ScenarioCompiler,
    ScenarioSpec,
    SpatialFootprint,
    SupplyShock,
    TravelSlowdown,
    ZoneClosure,
    compile_scenario,
)
from repro.scenarios.compiler import SLOT_COUNT

#: A tiny but non-degenerate compile scale for unit tests.
TRIPS, DRIVERS = 60, 8


def tiny(name, events=(), seed=2017, **kwargs):
    kwargs.setdefault("trip_count", TRIPS)
    kwargs.setdefault("driver_count", DRIVERS)
    return ScenarioSpec(name=name, events=tuple(events), seed=seed, **kwargs)


# ----------------------------------------------------------------------
# hypothesis strategies over random specs
# ----------------------------------------------------------------------
def footprints():
    return st.builds(
        lambda s, w, dn, de: SpatialFootprint(
            south=s, west=w, north=min(1.0, s + dn), east=min(1.0, w + de)
        ),
        st.floats(0.0, 0.7),
        st.floats(0.0, 0.7),
        st.floats(0.1, 0.3),
        st.floats(0.1, 0.3),
    )


def windows():
    return st.tuples(st.floats(0.0, 20.0), st.floats(0.5, 4.0)).map(
        lambda pair: (pair[0], min(24.0, pair[0] + pair[1]))
    )


def surges():
    return st.builds(
        lambda window, intensity, footprint: DemandSurge(
            start_hour=window[0], end_hour=window[1],
            intensity=intensity, footprint=footprint,
        ),
        windows(),
        st.floats(1.1, 4.0),
        st.one_of(st.none(), footprints()),
    )


def closures():
    return st.builds(
        lambda window, footprint: ZoneClosure(window[0], window[1], footprint),
        windows(), footprints(),
    )


def shocks():
    return st.builds(
        lambda at, fraction: SupplyShock(at_hour=at, driver_fraction=fraction),
        st.floats(0.0, 24.0),
        st.one_of(st.floats(-0.6, -0.1), st.floats(0.1, 0.6)),
    )


def slowdowns():
    # Half day-level (scaled base rates), half windowed (compiled into the
    # travel model's slot profile).
    day_level = st.builds(TravelSlowdown, speed_factor=st.floats(0.6, 1.0))
    windowed = st.builds(
        lambda window, speed, cost: TravelSlowdown(
            speed_factor=speed, cost_factor=cost,
            start_hour=window[0], end_hour=window[1],
        ),
        windows(), st.floats(0.6, 1.0), st.floats(1.0, 1.3),
    )
    return st.one_of(day_level, windowed)


def migrations():
    return st.builds(
        lambda window, src, dst, fraction: HotspotMigration(
            window[0], window[1], src, dst, fraction
        ),
        windows(), footprints(), footprints(), st.floats(0.1, 1.0),
    )


def specs():
    return st.builds(
        lambda events, seed: ScenarioSpec(
            name="random", events=tuple(events),
            trip_count=40, driver_count=5, seed=seed,
        ),
        st.lists(
            st.one_of(surges(), closures(), shocks(), slowdowns(), migrations()),
            max_size=4,
        ),
        st.integers(0, 2**16),
    )


class TestDeterminism:
    @settings(max_examples=15, deadline=None)
    @given(spec=specs())
    def test_random_specs_compile_deterministically(self, spec):
        first = compile_scenario(spec)
        second = compile_scenario(spec)
        assert first.checksum() == second.checksum()
        assert first.trips == second.trips
        assert first.drivers == second.drivers
        assert first.tasks == second.tasks

    def test_seed_changes_the_workload(self):
        base = tiny("seeded")
        assert (
            compile_scenario(base).checksum()
            != compile_scenario(base.with_seed(999)).checksum()
        )

    def test_no_event_spec_matches_default_generator_path(self):
        compiled = compile_scenario(tiny("plain"))
        assert len(compiled.trips) == TRIPS
        assert len(compiled.drivers) == DRIVERS
        assert compiled.instance.task_count == len(compiled.tasks)


class TestDemandSurge:
    def test_slot_weights_scaled_only_in_window(self):
        spec = tiny("surge", [DemandSurge(8.0, 10.0, intensity=3.0)])
        compiler = ScenarioCompiler(spec)
        weights = compiler.slot_weights()
        base = ScenarioCompiler(tiny("plain")).slot_weights()
        for slot in range(len(weights)):
            hour = slot * 24.0 / len(weights)
            if 8.0 <= hour < 10.0:
                assert weights[slot] == pytest.approx(3.0 * base[slot])
            elif hour < 7.75 or hour >= 10.0:
                assert weights[slot] == pytest.approx(base[slot])

    def test_surge_grows_the_trip_volume(self):
        surged = compile_scenario(tiny("surge", [DemandSurge(7.0, 10.0, intensity=3.0)]))
        assert len(surged.trips) > TRIPS

    def test_footprint_concentrates_in_window_pickups(self):
        footprint = SpatialFootprint(0.6, 0.6, 0.9, 0.9)
        spec = tiny(
            "surge-spatial",
            [DemandSurge(8.0, 11.0, intensity=4.0, footprint=footprint)],
            trip_count=400,
        )
        compiled = compile_scenario(spec)
        box = footprint.to_box(spec.region)
        in_window = [
            t for t in compiled.trips if 8.0 * 3600 <= t.start_ts % 86400 < 11.0 * 3600
        ]
        inside = sum(1 for t in in_window if box.contains(t.origin))
        # The surplus 3/4 of surged demand lands in the footprint; the base
        # downtown model rarely puts mass there.
        assert inside / len(in_window) > 0.5


class TestZoneClosure:
    def test_no_in_window_pickup_inside_the_zone(self):
        footprint = SpatialFootprint(0.3, 0.3, 0.7, 0.7)
        spec = tiny("closed", [ZoneClosure(9.0, 17.0, footprint)], trip_count=300)
        compiled = compile_scenario(spec)
        box = footprint.to_box(spec.region)
        for trip in compiled.trips:
            hour = (trip.start_ts % 86400) / 3600.0
            if 9.0 <= hour < 17.0:
                assert not box.contains(trip.origin)

    def test_overlapping_closures_are_enforced_jointly(self):
        """Escaping one closed zone must never land a pickup inside another
        concurrently closed zone (the downtown-biased resample would
        otherwise funnel displaced demand into the core closure)."""
        core = SpatialFootprint(0.30, 0.30, 0.70, 0.70)
        west = SpatialFootprint(0.10, 0.00, 0.90, 0.30)
        spec = tiny(
            "double-closed",
            [ZoneClosure(9.0, 17.0, core), ZoneClosure(9.0, 17.0, west)],
            trip_count=300,
        )
        compiled = compile_scenario(spec)
        core_box = core.to_box(spec.region)
        west_box = west.to_box(spec.region)
        for trip in compiled.trips:
            hour = (trip.start_ts % 86400) / 3600.0
            if 9.0 <= hour < 17.0:
                assert not core_box.contains(trip.origin)
                assert not west_box.contains(trip.origin)


class TestSupplyShock:
    def test_negative_shock_truncates_or_drops(self):
        spec = tiny("strike", [SupplyShock(at_hour=12.0, driver_fraction=-0.5)])
        base = compile_scenario(tiny("strike"))
        shocked = compile_scenario(spec)
        at_s = 12.0 * 3600.0
        delta = round(0.5 * DRIVERS)
        on_road_base = sum(1 for d in base.drivers if d.end_ts > at_s)
        on_road_after = sum(1 for d in shocked.drivers if d.end_ts > at_s)
        assert on_road_base - on_road_after == min(delta, on_road_base)
        assert len(shocked.drivers) <= len(base.drivers)

    def test_positive_shock_adds_fresh_shifts(self):
        spec = tiny(
            "reinforce",
            [SupplyShock(at_hour=18.0, driver_delta=4, duration_hours=3.0)],
        )
        compiled = compile_scenario(spec)
        added = [d for d in compiled.drivers if "shock" in d.driver_id]
        assert len(added) == 4
        for driver in added:
            assert driver.start_ts == 18.0 * 3600.0
            assert driver.end_ts == 21.0 * 3600.0
        assert len(compiled.drivers) == DRIVERS + 4


class TestTravelSlowdown:
    def test_scales_model_and_trace_consistently(self):
        spec = tiny("rain", [TravelSlowdown(speed_factor=0.7, cost_factor=1.1)])
        compiled = compile_scenario(spec)
        model = compiled.instance.cost_model.travel_model
        assert model.speed_kmh == pytest.approx(30.0 * 0.7)
        assert model.cost_per_km == pytest.approx(0.12 * 1.1)
        # Recorded trips slow down too, so their windows stay servable.
        speeds = [t.average_speed_kmh for t in compiled.trips if t.duration_s > 0]
        jitter = spec.base.speed_jitter
        assert max(speeds) <= spec.base.speed_kmh * 0.7 * (1.0 + jitter) + 1e-9
        assert min(speeds) >= spec.base.speed_kmh * 0.7 * (1.0 - jitter) - 1e-9


class TestWindowedSlowdown:
    """Windowed TravelSlowdown events compile into the travel model's slot
    profile; day-level events scale its base rates and keep it flat."""

    def test_day_level_event_keeps_plain_model(self):
        compiled = compile_scenario(tiny("rain", [TravelSlowdown(speed_factor=0.7)]))
        model = compiled.instance.cost_model.travel_model
        assert isinstance(model, TravelModel)
        assert model.is_flat and model.speed_factors == (1.0,)
        assert ScenarioCompiler(compiled.spec).slowdown_profile() is None

    def test_windowed_event_compiles_a_slot_profile(self):
        event = TravelSlowdown(speed_factor=0.6, cost_factor=1.2,
                               start_hour=8.0, end_hour=10.0)
        compiled = compile_scenario(tiny("rush", [event]))
        model = compiled.instance.cost_model.travel_model
        assert not model.is_flat
        assert len(model.speed_factors) == SLOT_COUNT
        assert model.window_s == pytest.approx(86400.0 / SLOT_COUNT)
        assert model.origin_ts == 0.0
        slot_s = 86400.0 / SLOT_COUNT
        for slot in range(SLOT_COUNT):
            midpoint_hour = (slot + 0.5) * slot_s / 3600.0
            if 8.0 <= midpoint_hour < 10.0:
                assert model.speed_factors[slot] == pytest.approx(0.6)
                assert model.cost_factors[slot] == pytest.approx(1.2)
            else:
                assert model.speed_factors[slot] == 1.0
                assert model.cost_factors[slot] == 1.0

    def test_windowed_events_compose_multiplicatively(self):
        events = [
            TravelSlowdown(speed_factor=0.8, start_hour=8.0, end_hour=12.0),
            TravelSlowdown(speed_factor=0.5, start_hour=10.0, end_hour=14.0),
        ]
        profile = ScenarioCompiler(tiny("storms", events)).slowdown_profile()
        assert profile is not None
        speeds, _costs = profile
        slot_s = 86400.0 / SLOT_COUNT
        hour_of = lambda slot: (slot + 0.5) * slot_s / 3600.0
        for slot in range(SLOT_COUNT):
            hour = hour_of(slot)
            expected = 1.0
            if 8.0 <= hour < 12.0:
                expected *= 0.8
            if 10.0 <= hour < 14.0:
                expected *= 0.5
            assert speeds[slot] == pytest.approx(expected)

    def test_day_level_and_windowed_compose_across_layers(self):
        """A day-level event scales the base model; a windowed one profiles
        it — the effective in-window rate is the product of both."""
        events = [
            TravelSlowdown(speed_factor=0.9),  # day-level rain
            TravelSlowdown(speed_factor=0.5, start_hour=8.0, end_hour=9.0),
        ]
        compiled = compile_scenario(tiny("layered", events))
        model = compiled.instance.cost_model.travel_model
        assert model.speed_kmh == pytest.approx(30.0 * 0.9)
        in_window_speed, _ = model.rates_at(8.5 * 3600.0)
        assert in_window_speed == pytest.approx(30.0 * 0.9 * 0.5)
        out_window_speed, _ = model.rates_at(12.0 * 3600.0)
        assert out_window_speed == pytest.approx(30.0 * 0.9)

    def test_windowed_event_changes_the_checksum(self):
        base = tiny("ws")
        windowed = tiny(
            "ws", [TravelSlowdown(speed_factor=0.7, start_hour=7.0, end_hour=9.0)]
        )
        shifted = tiny(
            "ws", [TravelSlowdown(speed_factor=0.7, start_hour=7.0, end_hour=10.0)]
        )
        checksums = {
            compile_scenario(s).checksum() for s in (base, windowed, shifted)
        }
        assert len(checksums) == 3

    def test_windowed_event_does_not_rescale_trip_speeds(self):
        """Only day-level events slow the *recorded* trips (a whole rainy
        day); a two-hour congestion window must leave trip generation — and
        therefore the demand timeline — untouched."""
        event = TravelSlowdown(speed_factor=0.5, start_hour=8.0, end_hour=10.0)
        base = compile_scenario(tiny("plainspeed"))
        windowed = compile_scenario(tiny("plainspeed", [event]))
        assert [t.start_ts for t in windowed.trips] == [t.start_ts for t in base.trips]
        assert [t.distance_km for t in windowed.trips] == [
            t.distance_km for t in base.trips
        ]


class TestWindowBoundaries:
    """Compiled arrival batches and dispatch-window edges agree with
    ``stream_schedule`` — the contract that makes a streamed scenario the
    replay's sharded twin (and lines forecaster slots up with dispatch)."""

    @settings(max_examples=15, deadline=None)
    @given(spec=specs(), window_s=st.sampled_from([30.0, 60.0, 120.0, 300.0]))
    def test_arrival_batches_equal_stream_schedule(self, spec, window_s):
        compiled = compile_scenario(spec)
        batches = compiled.arrival_batches(window_s)
        reference = stream_schedule(compiled.tasks, window_s)
        assert [
            [t.task_id for t in batch] for batch in batches
        ] == [[t.task_id for t in batch] for batch in reference]

    @settings(max_examples=15, deadline=None)
    @given(spec=specs())
    def test_batch_slots_respect_window_edges(self, spec):
        """Every publishable task lands in the half-open window
        ``[anchor + slot*window_s, anchor + (slot+1)*window_s)`` of its
        batch, with slots computed exactly like the forecaster's."""
        compiled = compile_scenario(spec)
        window_s = spec.window_s
        batches = compiled.arrival_batches()
        publishable = [t for t in compiled.tasks if t.is_publishable]
        if not publishable:
            return
        anchor = min(t.publish_ts for t in publishable)
        slots = []
        for batch in batches:
            batch_slots = {
                publish_slot_of(t.publish_ts, anchor, window_s)
                for t in batch
                if t.is_publishable
            }
            # One dispatch window per batch, in strictly increasing order.
            assert len(batch_slots) <= 1
            if batch_slots:
                slot = batch_slots.pop()
                for task in batch:
                    if task.is_publishable:
                        start = anchor + slot * window_s
                        assert start <= task.publish_ts < start + window_s
                slots.append(slot)
        assert slots == sorted(slots)
        assert len(set(slots)) == len(slots)

    def test_boundary_publish_lands_in_next_window(self):
        """A task publishing exactly on a window edge opens the next batch."""
        compiled = compile_scenario(tiny("edges"))
        window_s = compiled.spec.window_s
        publishable = [t for t in compiled.tasks if t.is_publishable]
        anchor = min(t.publish_ts for t in publishable)
        assert publish_slot_of(anchor + window_s, anchor, window_s) == 1
        assert publish_slot_of(anchor + window_s - 1e-6, anchor, window_s) == 0
        assert publish_slot_of(anchor + 2 * window_s, anchor, window_s) == 2


class TestHotspotMigration:
    def test_moves_demand_mass_into_the_target(self):
        source = SpatialFootprint(0.35, 0.35, 0.65, 0.65)  # downtown core
        target = SpatialFootprint(0.05, 0.05, 0.25, 0.25)
        event = HotspotMigration(6.0, 10.0, source, target, fraction=0.8)
        base = compile_scenario(tiny("migrate", trip_count=400))
        moved = compile_scenario(tiny("migrate", [event], trip_count=400))
        region = base.spec.region
        target_box = target.to_box(region)

        def in_window_target_share(compiled):
            window = [
                t for t in compiled.trips
                if 6.0 * 3600 <= t.start_ts % 86400 < 10.0 * 3600
            ]
            return sum(1 for t in window if target_box.contains(t.origin)) / len(window)

        assert in_window_target_share(moved) > in_window_target_share(base) + 0.1


class TestCompiledScenario:
    def test_arrival_batches_cover_every_task_in_publish_order(self):
        compiled = compile_scenario(tiny("batches"))
        batches = compiled.arrival_batches()
        flattened = [task for batch in batches for task in batch]
        assert sorted(t.task_id for t in flattened) == sorted(
            t.task_id for t in compiled.tasks
        )
        publish = [t.publish_ts for t in flattened]
        assert publish == sorted(publish)

    def test_effective_trip_count_without_surges_is_the_spec_count(self):
        assert ScenarioCompiler(tiny("plain")).effective_trip_count() == TRIPS
