"""Tests for the demand heatmap and idle-driver repositioning."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geo import PORTO, GeoPoint, default_travel_model
from repro.market import Driver
from repro.online import (
    DemandHeatmap,
    HotspotRepositioning,
    MaxMarginDispatcher,
    NoRepositioning,
    OnlineSimulator,
    apply_repositioning,
)
from repro.online.state import DriverState
from repro.trace import generate_trace

from ..conftest import build_random_instance
from ..repositioning_oracle import suggest_scalar

DOWNTOWN = PORTO.center
EDGE = GeoPoint(PORTO.south + 0.005, PORTO.west + 0.005)


def make_heatmap(hot=DOWNTOWN, ts=9.0 * 3600, count=50):
    heatmap = DemandHeatmap(PORTO, rows=4, cols=4)
    heatmap.record(hot, ts, count=count)
    return heatmap


def make_idle_state(location=EDGE, start=0.0, end=12.0 * 3600) -> DriverState:
    driver = Driver("d", location, DOWNTOWN, start, end)
    state = DriverState.fresh(driver)
    state.location = location
    return state


def suggest_one(policy, state, now_ts):
    """The policy's move for a single driver, through the fleet query."""
    return policy.suggest_batch([state], now_ts)[0]


class TestDemandHeatmap:
    def test_record_and_query(self):
        heatmap = make_heatmap()
        assert heatmap.demand_at(DOWNTOWN, 9.0 * 3600 + 120.0) == 50
        assert heatmap.demand_at(EDGE, 9.0 * 3600) == 0
        # Different hour -> different bucket.
        assert heatmap.demand_at(DOWNTOWN, 11.0 * 3600) == 0
        assert heatmap.total_demand() == 50

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            DemandHeatmap(PORTO, rows=0)
        heatmap = make_heatmap()
        with pytest.raises(ValueError):
            heatmap.record(DOWNTOWN, 0.0, count=-1)
        with pytest.raises(ValueError):
            heatmap.hottest_zones(0.0, top=0)

    def test_hottest_zones_ordering(self):
        heatmap = DemandHeatmap(PORTO, rows=4, cols=4)
        heatmap.record(DOWNTOWN, 3600.0, count=30)
        heatmap.record(EDGE, 3600.0, count=10)
        zones = heatmap.hottest_zones(3600.0, top=2)
        assert len(zones) == 2
        assert zones[0][1] == 30
        assert zones[1][1] == 10
        assert PORTO.contains(zones[0][0])

    def test_from_tasks_and_from_trips(self):
        trips = generate_trace(trip_count=100, seed=5)
        from_trips = DemandHeatmap.from_trips(trips, PORTO)
        assert from_trips.total_demand() == 100
        instance = build_random_instance(task_count=30, driver_count=3, seed=6)
        from_tasks = DemandHeatmap.from_tasks(instance.tasks, PORTO)
        assert from_tasks.total_demand() == 30


class TestHotspotPolicy:
    def test_invalid_parameters(self):
        heatmap = make_heatmap()
        model = default_travel_model()
        with pytest.raises(ValueError):
            HotspotRepositioning(heatmap, model, idle_threshold_s=-1.0)
        with pytest.raises(ValueError):
            HotspotRepositioning(heatmap, model, max_drive_km=0.0)
        with pytest.raises(ValueError):
            HotspotRepositioning(heatmap, model, improvement_factor=0.5)

    def test_suggests_move_towards_hotspot(self):
        heatmap = make_heatmap(ts=9.0 * 3600)
        policy = HotspotRepositioning(
            heatmap, default_travel_model(), idle_threshold_s=300.0, max_drive_km=50.0
        )
        state = make_idle_state()
        move = suggest_one(policy, state, now_ts=9.0 * 3600)
        assert move is not None
        # The target is in the hot zone, i.e. closer to downtown than before.
        assert move.target.haversine_km(DOWNTOWN) < state.location.haversine_km(DOWNTOWN)

    def test_busy_or_fresh_drivers_stay(self):
        heatmap = make_heatmap(ts=9.0 * 3600)
        policy = HotspotRepositioning(heatmap, default_travel_model(), idle_threshold_s=600.0)
        busy = make_idle_state()
        busy.locked = True
        assert suggest_one(policy, busy, 9.0 * 3600) is None
        fresh = make_idle_state(start=9.0 * 3600 - 60.0)
        assert suggest_one(policy, fresh, 9.0 * 3600) is None

    def test_never_strands_the_driver(self):
        heatmap = make_heatmap(ts=9.0 * 3600)
        policy = HotspotRepositioning(
            heatmap, default_travel_model(), idle_threshold_s=0.0, max_drive_km=50.0
        )
        # Shift ends in two minutes: no repositioning drive can be justified.
        state = make_idle_state(end=9.0 * 3600 + 120.0)
        assert suggest_one(policy, state, 9.0 * 3600) is None

    def test_respects_max_drive_distance(self):
        heatmap = make_heatmap(ts=9.0 * 3600)
        policy = HotspotRepositioning(
            heatmap, default_travel_model(), idle_threshold_s=0.0, max_drive_km=1.0
        )
        # The edge of the box is much more than 1 km from downtown.
        assert suggest_one(policy, make_idle_state(), 9.0 * 3600) is None

    def test_no_repositioning_baseline(self):
        assert suggest_one(NoRepositioning(), make_idle_state(), 1e6) is None


class TestBatchedSuggestions:
    """suggest_batch against the scalar per-driver rule
    (``tests/repositioning_oracle.py``): same decisions for every driver,
    computed with two cross_km calls."""

    def make_fleet(self, count=40, seed=5):
        import random

        rng = random.Random(seed)
        states = []
        for i in range(count):
            lat = rng.uniform(PORTO.south, PORTO.north)
            lon = rng.uniform(PORTO.west, PORTO.east)
            home = GeoPoint(
                rng.uniform(PORTO.south, PORTO.north), rng.uniform(PORTO.west, PORTO.east)
            )
            start = rng.choice([0.0, 8.0 * 3600, 9.0 * 3600 - 60.0])
            end = rng.choice([9.5 * 3600, 12.0 * 3600, 18.0 * 3600])
            driver = Driver(f"d{i}", GeoPoint(lat, lon), home, start, end)
            state = DriverState.fresh(driver)
            state.locked = rng.random() < 0.2
            states.append(state)
        return states

    def test_batch_matches_scalar_reference(self):
        heatmap = make_heatmap(ts=9.0 * 3600)
        heatmap.record(EDGE, 9.0 * 3600, count=20)
        policy = HotspotRepositioning(
            heatmap, default_travel_model(), idle_threshold_s=300.0, max_drive_km=30.0
        )
        states = self.make_fleet()
        now_ts = 9.0 * 3600
        batched = policy.suggest_batch(states, now_ts)
        scalar = [suggest_scalar(policy, state, now_ts) for state in states]
        assert batched == scalar
        assert any(move is not None for move in batched)  # the case is non-trivial

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        fleet_size=st.integers(min_value=1, max_value=25),
        hot_zones=st.lists(
            st.tuples(
                st.floats(min_value=0.05, max_value=0.95),
                st.floats(min_value=0.05, max_value=0.95),
                st.integers(min_value=1, max_value=60),
            ),
            min_size=0,
            max_size=4,
        ),
        now_hour=st.floats(min_value=1.0, max_value=23.0),
        max_drive_km=st.floats(min_value=0.5, max_value=40.0),
    )
    def test_batch_equals_scalar_on_random_fleets(
        self, seed, fleet_size, hot_zones, now_hour, max_drive_km
    ):
        """suggest_batch == [suggest_scalar(s) for s in states] for arbitrary
        fleets, demand fields and policy knobs (the batched rule never
        diverges from the scalar one)."""
        heatmap = DemandHeatmap(PORTO, rows=4, cols=4)
        now_ts = now_hour * 3600.0
        for frac_lat, frac_lon, count in hot_zones:
            hot = GeoPoint(
                PORTO.south + frac_lat * (PORTO.north - PORTO.south),
                PORTO.west + frac_lon * (PORTO.east - PORTO.west),
            )
            heatmap.record(hot, now_ts, count=count)
        policy = HotspotRepositioning(
            heatmap,
            default_travel_model(),
            idle_threshold_s=300.0,
            max_drive_km=max_drive_km,
        )
        states = self.make_fleet(count=fleet_size, seed=seed)
        batched = policy.suggest_batch(states, now_ts)
        assert batched == [suggest_scalar(policy, state, now_ts) for state in states]


class TestApplyRepositioning:
    def test_moves_update_state_and_charge_cost(self):
        heatmap = make_heatmap(ts=9.0 * 3600)
        model = default_travel_model()
        policy = HotspotRepositioning(heatmap, model, idle_threshold_s=0.0, max_drive_km=50.0)
        state = make_idle_state()
        before_location = state.location
        moved = apply_repositioning(policy, [state], 9.0 * 3600, model)
        assert moved == 1
        assert state.location != before_location
        assert state.running_profit < 0.0  # the empty drive was paid for
        assert state.free_at > 9.0 * 3600

    def test_noop_policy_changes_nothing(self):
        state = make_idle_state()
        moved = apply_repositioning(NoRepositioning(), [state], 1e6, default_travel_model())
        assert moved == 0
        assert state.running_profit == 0.0


class TestSimulatorIntegration:
    def test_simulation_with_repositioning_is_consistent(self):
        instance = build_random_instance(task_count=40, driver_count=8, seed=97)
        heatmap = DemandHeatmap.from_tasks(instance.tasks, PORTO)
        policy = HotspotRepositioning(
            heatmap,
            instance.cost_model.travel_model,
            idle_threshold_s=300.0,
            max_drive_km=8.0,
            improvement_factor=1.0,
        )
        plain = OnlineSimulator(instance, MaxMarginDispatcher()).run()
        repositioned = OnlineSimulator(
            instance, MaxMarginDispatcher(), repositioning=policy
        ).run()
        # Same stream, same invariants.
        served = [m for r in repositioned.plans for m in r.task_indices]
        assert len(served) == len(set(served))
        assert repositioned.served_count + len(repositioned.rejected_tasks) == instance.task_count
        # Repositioning changes behaviour but stays in a sane range.
        assert repositioned.total_value <= plain.total_value * 1.5 + 10.0
