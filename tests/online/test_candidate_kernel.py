"""Equivalence tests for the vectorised candidate kernel.

The spatial-index + vectorisation refactor must be *behaviour preserving*:
on the same seeded instance, the per-order and batched simulators have to
produce bit-for-bit identical dispatch decisions whether candidates come
from the scalar reference loop, the vectorised kernel, or the vectorised
kernel behind the grid prefilter.  The kernel has one production path; the
other two arms come from the fixtures in ``tests/online/conftest.py``.
"""

from __future__ import annotations

import copy
import dataclasses

import numpy as np
import pytest

from repro.geo import (
    EquirectangularEstimator,
    HaversineEstimator,
    ManhattanEstimator,
    TravelModel,
)
from repro.geo.batch import _METRIC_FNS, METRICS
from repro.market import Driver, MarketCostModel, MarketInstance, StreamingMarketInstance
from repro.online import (
    BatchConfig,
    BatchedSimulator,
    CandidateKernel,
    HotspotRepositioning,
    MaxMarginDispatcher,
    NearestDispatcher,
    OnlineSimulator,
    RandomDispatcher,
)
from repro.online.state import DriverState

from ..candidate_oracle import candidates_for_scalar
from ..conftest import build_random_instance, flat_travel_model, make_chain_task, point_east
from .conftest import index_off, scalar_oracle


@pytest.fixture(scope="module")
def instance():
    # Enough drivers to clear the kernel's min-fleet threshold, so the grid
    # prefilter is actually exercised (not just configured).
    return build_random_instance(task_count=90, driver_count=30, seed=13)


def outcome_signature(outcome):
    return (
        tuple(plan.task_indices for plan in outcome.plans),
        outcome.rejected_tasks,
    )


def one_task_window(kernel, task_index, now_ts):
    """The per-order simulator's query: a one-task window."""
    return kernel.candidates_for_window([task_index], now_ts).get(task_index, [])


def assert_profits_match(a, b):
    for ra, rb in zip(a.plans, b.plans):
        assert ra.driver_id == rb.driver_id
        assert ra.profit == pytest.approx(rb.profit, abs=1e-9)


class TestKernelCandidateEquivalence:
    def test_vectorized_candidates_match_scalar_reference(self, instance):
        states = [DriverState.fresh(d) for d in instance.drivers]
        vectorized = CandidateKernel(instance, states)
        with index_off():
            exhaustive = CandidateKernel(instance, states)
        assert vectorized.uses_spatial_index
        assert not exhaustive.uses_spatial_index
        checked_any = False
        for task_index, task in enumerate(instance.tasks):
            now_ts = task.publish_ts
            fast = one_task_window(vectorized, task_index, now_ts)
            full = one_task_window(exhaustive, task_index, now_ts)
            reference = candidates_for_scalar(vectorized, task_index, task, now_ts)
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
        with index_off():
            exhaustive = CandidateKernel(instance, states)
        task = instance.tasks[0]
        moved = states[0]
        moved.location = task.source
        moved.free_at = task.publish_ts
        kernel.sync(moved)
        exhaustive.sync(moved)
        reference = candidates_for_scalar(kernel, 0, task, task.publish_ts)
        for synced in (kernel, exhaustive):
            fast = one_task_window(synced, 0, task.publish_ts)
            assert [c.driver_id for c in fast] == [c.driver_id for c in reference]


def reference_window_costs(instance, states, metric, scale, now_ts):
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
            pickup = max(arrival, sdl)
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
    oracle, for every built-in metric."""

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
    def test_naive_reference(self, metric):
        instance, scale = self._market(metric)
        states = [DriverState.fresh(d) for d in instance.drivers]
        kernel = CandidateKernel(instance, states)
        publishes = sorted(task.publish_ts for task in instance.tasks)
        checked = 0
        for now_ts in (publishes[0], publishes[len(publishes) // 2]):
            want = reference_window_costs(instance, states, metric, scale, now_ts)
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
        def run():
            return OnlineSimulator(instance, make_dispatcher()).run()

        with scalar_oracle():
            outcomes = [run()]
        with index_off():
            outcomes.append(run())
        outcomes.append(run())
        assert outcomes[0].served_count > 0
        baseline = outcome_signature(outcomes[0])
        for outcome in outcomes[1:]:
            assert outcome_signature(outcome) == baseline
            assert_profits_match(outcome, outcomes[0])

    def test_batched_simulator_identical_outcomes(self, instance):
        with scalar_oracle():
            scalar = BatchedSimulator(instance, BatchConfig(window_s=45.0)).run()
        vectorized = BatchedSimulator(instance, BatchConfig(window_s=45.0)).run()
        assert scalar.served_count > 0
        assert outcome_signature(vectorized) == outcome_signature(scalar)
        assert_profits_match(vectorized, scalar)

    def test_chain_instance_still_chains(self, chain_instance):
        # A tiny fleet disables the spatial index; the vectorised kernel must
        # still reproduce the handcrafted chain assignment exactly.
        outcome = OnlineSimulator(chain_instance, MaxMarginDispatcher()).run()
        by_driver = {p.driver_id: p.task_indices for p in outcome.plans}
        assert by_driver["chainer"] == (0, 1)
        assert by_driver["stranded"] == ()


class TestOneCandidatePath:
    """The kernel has no switches, no private copy of the task columns, and
    owns the one commit both simulators make.  The dispatch semantics have
    no switches either: every removed option is rejected by every
    constructor that could once have carried it."""

    SEMANTICS = (
        "require_positive_margin",
        "allow_retries",
        "wait_for_pickup_deadline",
        "use_recorded_duration",
        "overlap_factor",
        "forecast_alpha",
        "lookahead_weight",
    )
    REMOVED = {
        OnlineSimulator: ("use_vectorized_kernel", "use_spatial_index", "drop_unpublishable", "config")
        + SEMANTICS,
        BatchConfig: ("use_vectorized_kernel", "use_spatial_index") + SEMANTICS,
        CandidateKernel: ("vectorized", "spatial_index", "cell_km", "min_drivers_for_index")
        + SEMANTICS,
        MaxMarginDispatcher: SEMANTICS,
    }

    @pytest.mark.parametrize(
        "constructor, name",
        [(ctor, name) for ctor, names in REMOVED.items() for name in names],
        ids=lambda value: getattr(value, "__name__", value),
    )
    def test_removed_options_are_rejected(self, instance, constructor, name):
        args = {
            OnlineSimulator: (instance, MaxMarginDispatcher()),
            CandidateKernel: (instance, []),
        }.get(constructor, ())
        with pytest.raises(TypeError, match=name):
            constructor(*args, **{name: True})

    def test_one_query_and_one_repositioning_rule(self):
        # The per-order simulator asks the window query for a one-task
        # window; the scalar twins live in tests/ as oracles.
        assert not hasattr(CandidateKernel, "candidates_for")
        assert not hasattr(HotspotRepositioning, "suggest")

    def test_only_the_set_options_survive(self):
        import repro.online

        assert not hasattr(repro.online, "SimulationConfig")
        assert "SimulationConfig" not in repro.online.__all__
        assert {f.name for f in dataclasses.fields(BatchConfig)} == {
            "window_s",
            "horizon",
            "overlap",
            "forecast",
        }

    def test_kernel_built_before_stream_growth_matches_one_built_after(self, instance):
        # 90 tasks in appends of 7 cross the stream's column-buffer doublings
        # (64 rows, then 128): the early kernel must keep reading live column
        # rows, not the views it saw when it was built.
        stream = StreamingMarketInstance(instance.drivers, instance.cost_model)
        states = [DriverState.fresh(d) for d in instance.drivers]
        early = CandidateKernel(stream, states)
        picked_up = 0
        for first in range(0, instance.task_count, 7):
            stream.append_tasks(instance.tasks[first : first + 7])
            picked_up += early.extend_tasks()
        assert picked_up == instance.task_count
        assert early.extend_tasks() == 0
        late = CandidateKernel(stream, states)

        def cells(kernel, now_ts):
            window = kernel.candidates_for_window(range(stream.task_count), now_ts)
            return {
                (m, c.driver_id): (c.arrival_ts, c.dropoff_ts, c.approach_cost, c.marginal_value)
                for m, found in window.items()
                for c in found
            }

        publishes = sorted(task.publish_ts for task in instance.tasks)
        for now_ts in (publishes[0], publishes[len(publishes) // 2]):
            assert cells(early, now_ts) == cells(late, now_ts)
            assert cells(early, now_ts)

    def test_both_simulators_share_one_commit_and_one_settle(self, monkeypatch):
        # One driver whose shift starts after the batched window closes but
        # before the pickup deadline: both simulators then face the same
        # candidate (depart == shift start) for the one task.
        task = make_chain_task(0, 0.0, 5.0, start_ts=1000.0, price=5.0)
        driver = Driver(
            driver_id="late-starter",
            source=point_east(1.0),
            destination=point_east(6.0),
            start_ts=700.0,
            end_ts=10_000.0,
        )
        market = MarketInstance.create(
            drivers=[driver], tasks=[task], cost_model=MarketCostModel(flat_travel_model())
        )
        committed, settled = [], []
        commit, settle = CandidateKernel.commit, DriverState.settle

        def spy_commit(kernel, choice, task_index, task):
            commit(kernel, choice, task_index, task)
            committed.append((choice, copy.deepcopy(choice.state)))

        def spy_settle(state, cost_model):
            settled.append(settle(state, cost_model))
            return settled[-1]

        monkeypatch.setattr(CandidateKernel, "commit", spy_commit)
        monkeypatch.setattr(DriverState, "settle", spy_settle)

        per_order = OnlineSimulator(market, MaxMarginDispatcher()).run()
        batched = BatchedSimulator(market, BatchConfig(window_s=60.0)).run()

        (choice_a, state_a), (choice_b, state_b) = committed
        assert (choice_a.arrival_ts, choice_a.dropoff_ts, choice_a.approach_cost) == (
            choice_b.arrival_ts, choice_b.dropoff_ts, choice_b.approach_cost
        )
        assert state_a == state_b
        assert state_a.served == [0] and state_a.locked
        assert settled[0] == settled[1]
        assert per_order.plans == batched.plans == (settled[0],)
        assert settled[0].task_indices == (0,)
