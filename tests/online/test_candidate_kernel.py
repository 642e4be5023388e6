"""Equivalence tests for the vectorised candidate kernel.

The spatial-index + vectorisation refactor must be *behaviour preserving*:
on the same seeded instance, the per-order and batched simulators have to
produce bit-for-bit identical dispatch decisions whether candidates come
from the scalar reference loop, the vectorised kernel, or the vectorised
kernel behind the grid prefilter.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.geo import (
    EquirectangularEstimator,
    HaversineEstimator,
    ManhattanEstimator,
    TravelModel,
)
from repro.geo.batch import _METRIC_FNS, METRICS
from repro.market import MarketCostModel, MarketInstance
from repro.online import (
    BatchConfig,
    BatchedSimulator,
    CandidateKernel,
    MaxMarginDispatcher,
    NearestDispatcher,
    OnlineSimulator,
    RandomDispatcher,
    SimulationConfig,
)
from repro.online.state import DriverState

from ..conftest import build_random_instance


@pytest.fixture(scope="module")
def instance():
    # Enough drivers to clear the kernel's min-fleet threshold, so the grid
    # prefilter is actually exercised (not just configured).
    return build_random_instance(task_count=90, driver_count=30, seed=13)


def outcome_signature(outcome):
    return (
        tuple(record.task_indices for record in outcome.records),
        outcome.rejected_tasks,
    )


def assert_profits_match(a, b):
    for ra, rb in zip(a.records, b.records):
        assert ra.driver_id == rb.driver_id
        assert ra.profit == pytest.approx(rb.profit, abs=1e-9)


class TestKernelCandidateEquivalence:
    def test_vectorized_candidates_match_scalar_reference(self, instance):
        states = [DriverState.fresh(d) for d in instance.drivers]
        vectorized = CandidateKernel(instance, states)
        exhaustive = CandidateKernel(instance, states, spatial_index=False)
        assert vectorized.uses_spatial_index
        assert not exhaustive.uses_spatial_index
        checked_any = False
        for task_index, task in enumerate(instance.tasks):
            now_ts = task.publish_ts
            fast = vectorized.candidates_for(task_index, task, now_ts)
            full = exhaustive.candidates_for(task_index, task, now_ts)
            reference = vectorized.candidates_for_scalar(task_index, task, now_ts)
            assert [c.driver_id for c in fast] == [c.driver_id for c in reference]
            assert [c.driver_id for c in full] == [c.driver_id for c in reference]
            for got, want in zip(fast, reference):
                assert got.arrival_ts == pytest.approx(want.arrival_ts, abs=1e-9)
                assert got.dropoff_ts == pytest.approx(want.dropoff_ts, abs=1e-9)
                assert got.approach_cost == pytest.approx(want.approach_cost, abs=1e-9)
                assert got.marginal_value == pytest.approx(want.marginal_value, abs=1e-9)
            checked_any = checked_any or bool(reference)
        assert checked_any, "instance produced no candidates at all"

    def test_index_disabled_outside_city_scale_regime(self, instance):
        # The prune-radius margins are only provably supersets for city-scale
        # mid-latitude boxes; a polar/continental instance must fall back to
        # the exhaustive scan even with a large fleet.
        from repro.geo import GeoPoint
        from repro.market import Driver, MarketInstance

        polar_drivers = [
            Driver(
                driver_id=f"p{n}",
                source=GeoPoint(80.0 + 0.01 * n, -170.0 + 12.0 * n),
                destination=GeoPoint(80.5, -170.0 + 12.0 * n),
                start_ts=0.0,
                end_ts=36000.0,
            )
            for n in range(28)
        ]
        polar = MarketInstance.create(
            drivers=polar_drivers, tasks=instance.tasks, cost_model=instance.cost_model
        )
        kernel = CandidateKernel(polar, [DriverState.fresh(d) for d in polar_drivers])
        assert not kernel.uses_spatial_index

    def test_sync_tracks_moved_drivers(self, instance):
        states = [DriverState.fresh(d) for d in instance.drivers]
        kernel = CandidateKernel(instance, states)
        task = instance.tasks[0]
        moved = states[0]
        moved.location = task.source
        moved.free_at = task.publish_ts
        kernel.sync(moved)
        reference = kernel.candidates_for_scalar(0, task, task.publish_ts)
        fast = kernel.candidates_for(0, task, task.publish_ts)
        assert [c.driver_id for c in fast] == [c.driver_id for c in reference]


def reference_window_costs(instance, states, metric, scale, wait, now_ts):
    """A deliberately naive per-cell reimplementation of the window assembly
    — scalar arithmetic over the entities themselves, sharing nothing with
    ``candidates_for_window`` but the raw metric formula — returning
    ``{(task_index, driver_id): (arrival, dropoff, approach_cost, marginal)}``
    for every feasible cell."""
    kernel = _METRIC_FNS[metric]
    travel = instance.cost_model.travel_model
    speed_kmh, cost_per_km = travel.speed_kmh, travel.cost_per_km
    columns = instance.task_columns

    def km(a, b):
        return scale * float(
            kernel(*np.radians([a.lat, a.lon]), *np.radians([b.lat, b.lon]))
        )

    cells = {}
    for m, task in enumerate(instance.tasks):
        if not columns.servable[m]:
            continue
        sdl, edl = task.start_deadline_ts, task.end_deadline_ts
        for state in states:
            driver = state.driver
            depart = max(state.free_at, driver.start_ts, now_ts)
            approach_km = km(state.location, task.source)
            arrival = depart + approach_km / speed_kmh * 3600.0
            pickup = max(arrival, sdl) if wait else arrival
            dropoff = pickup + task.ride_window_s
            home_km = km(task.destination, driver.destination)
            if not (
                depart <= sdl
                and arrival <= sdl + 1e-9
                and dropoff <= edl + 1e-9
                and dropoff + home_km / speed_kmh * 3600.0 <= driver.end_ts + 1e-9
            ):
                continue
            approach_cost = approach_km * cost_per_km
            marginal = task.price - (
                home_km * cost_per_km
                + float(columns.service_costs[m])
                + approach_cost
                - km(state.location, driver.destination) * cost_per_km
            )
            cells[(m, driver.driver_id)] = (arrival, dropoff, approach_cost, marginal)
    return cells


class TestWindowOracle:
    """``candidates_for_window``'s matrix assembly against the naive per-cell
    oracle, for every built-in metric and both pickup-wait modes."""

    ESTIMATORS = {
        "haversine": HaversineEstimator(circuity=1.2),
        "equirectangular": EquirectangularEstimator(circuity=1.2),
        "manhattan": ManhattanEstimator(),
    }

    def _market(self, metric):
        base = build_random_instance(task_count=40, driver_count=10, seed=99)
        estimator = self.ESTIMATORS[metric]
        instance = MarketInstance.create(
            base.drivers,
            base.tasks,
            MarketCostModel(TravelModel(estimator, speed_kmh=35.0, cost_per_km=0.4)),
        )
        return instance, getattr(estimator, "circuity", 1.0)

    @pytest.mark.parametrize("metric", METRICS)
    @pytest.mark.parametrize("wait", [False, True])
    def test_naive_reference(self, metric, wait):
        instance, scale = self._market(metric)
        states = [DriverState.fresh(d) for d in instance.drivers]
        kernel = CandidateKernel(instance, states, wait_for_pickup_deadline=wait)
        publishes = sorted(task.publish_ts for task in instance.tasks)
        checked = 0
        for now_ts in (publishes[0], publishes[len(publishes) // 2]):
            want = reference_window_costs(instance, states, metric, scale, wait, now_ts)
            window = kernel.candidates_for_window(range(instance.task_count), now_ts)
            got = {
                (m, c.driver_id): (
                    c.arrival_ts, c.dropoff_ts, c.approach_cost, c.marginal_value
                )
                for m, candidates in window.items()
                for c in candidates
            }
            assert set(got) == set(want)  # feasibility is exact
            for cell, values in want.items():
                np.testing.assert_allclose(got[cell], values, rtol=0.0, atol=1e-9)
            # Candidates come back in fleet order within each task.
            fleet_pos = {d.driver_id: i for i, d in enumerate(instance.drivers)}
            for candidates in window.values():
                order = [fleet_pos[c.driver_id] for c in candidates]
                assert order == sorted(order)
            checked += len(want)
        assert checked, "instance produced no feasible cell at all"

    def test_empty_window(self):
        instance, _scale = self._market("haversine")
        states = [DriverState.fresh(d) for d in instance.drivers]
        kernel = CandidateKernel(instance, states)
        now_ts = instance.tasks[0].publish_ts
        assert kernel.candidates_for_window([], now_ts) == {}
        # A window whose every task is already past its pickup deadline.
        late = max(task.start_deadline_ts for task in instance.tasks) + 1.0
        assert kernel.candidates_for_window(range(instance.task_count), late) == {}


class TestSimulatorOutcomeRegression:
    """Whole-simulation replays: scalar loop vs vectorised kernel vs grid."""

    @pytest.mark.parametrize(
        "make_dispatcher",
        [
            lambda: MaxMarginDispatcher(),
            lambda: NearestDispatcher(seed=5),
            lambda: RandomDispatcher(seed=5),
        ],
        ids=["maxMargin", "nearest", "random"],
    )
    def test_per_order_simulator_identical_outcomes(self, instance, make_dispatcher):
        configs = [
            SimulationConfig(use_vectorized_kernel=False, use_spatial_index=False),
            SimulationConfig(use_vectorized_kernel=True, use_spatial_index=False),
            SimulationConfig(use_vectorized_kernel=True, use_spatial_index=True),
        ]
        outcomes = [
            OnlineSimulator(instance, make_dispatcher(), config).run()
            for config in configs
        ]
        assert outcomes[0].served_count > 0
        baseline = outcome_signature(outcomes[0])
        for outcome in outcomes[1:]:
            assert outcome_signature(outcome) == baseline
            assert_profits_match(outcome, outcomes[0])

    def test_batched_simulator_identical_outcomes(self, instance):
        scalar = BatchedSimulator(
            instance, BatchConfig(window_s=45.0, use_vectorized_kernel=False)
        ).run()
        vectorized = BatchedSimulator(
            instance, BatchConfig(window_s=45.0, use_vectorized_kernel=True)
        ).run()
        assert scalar.served_count > 0
        assert outcome_signature(vectorized) == outcome_signature(scalar)
        assert_profits_match(vectorized, scalar)

    def test_chain_instance_still_chains(self, chain_instance):
        # A tiny fleet disables the spatial index; the vectorised kernel must
        # still reproduce the handcrafted chain assignment exactly.
        outcome = OnlineSimulator(chain_instance, MaxMarginDispatcher()).run()
        by_driver = {r.driver_id: r.task_indices for r in outcome.records}
        assert by_driver["chainer"] == (0, 1)
        assert by_driver["stranded"] == ()
