"""Tests for rolling-horizon dispatch (repro.online.horizon + batch wiring).

The in-process half of parity contract 18:

* ``horizon=1`` degrades bit-identically to the myopic dispatcher, on both
  the replayed ``run()`` and the streamed ``run_stream()`` paths;
* an all-ones multi-window travel-model profile reproduces the default
  one-window model's outputs bit for bit;
* under a genuinely time-varying model, stream == replay still holds;
* the oracle forecaster is rejected at ``stream_begin`` (the future is
  unknown on a live stream);
* the planner/heatmap building blocks behave (pressure bounded, bias
  bounded, repositioning moves drivers toward forecast demand).
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.geo import PORTO
from repro.market import StreamingMarketInstance
from repro.market.cost import MarketCostModel
from repro.market.instance import MarketInstance
from repro.online import BatchedSimulator, LookaheadPlanner, ZoneGrid
from repro.online.batch import BatchConfig, stream_schedule
from repro.online.horizon import ForecastHeatmap

from ..conftest import build_random_instance, flat_travel_model


def outcome_fingerprint(outcome) -> tuple:
    return (
        tuple((r.driver_id, r.task_indices, r.profit) for r in outcome.plans),
        outcome.total_value,
        outcome.total_wait_s,
        tuple(sorted(outcome.rejected_tasks)),
    )


def with_travel_model(instance: MarketInstance, travel_model) -> MarketInstance:
    return MarketInstance.create(
        drivers=instance.drivers,
        tasks=instance.tasks,
        cost_model=MarketCostModel(travel_model),
    )


def run_streamed(instance: MarketInstance, config: BatchConfig):
    schedule = stream_schedule(instance.tasks, config.window_s)
    streaming = StreamingMarketInstance(
        drivers=instance.drivers, cost_model=instance.cost_model
    )
    return BatchedSimulator(streaming, config).run_stream(schedule)


HORIZON_CONFIG = dict(horizon=8, overlap=2, window_s=60.0)


class TestConfigValidation:
    def test_horizon_knobs_validated(self):
        with pytest.raises(ValueError):
            BatchConfig(horizon=0)
        with pytest.raises(ValueError):
            BatchConfig(overlap=-1)
        with pytest.raises(ValueError):
            BatchConfig(forecast="psychic")

    def test_oracle_rejected_on_live_stream(self):
        instance = build_random_instance(task_count=10, driver_count=3, seed=11)
        streaming = StreamingMarketInstance(
            drivers=instance.drivers, cost_model=instance.cost_model
        )
        simulator = BatchedSimulator(
            streaming, BatchConfig(window_s=60.0, horizon=4, forecast="oracle")
        )
        with pytest.raises(ValueError, match="oracle"):
            simulator.stream_begin()

    def test_oracle_allowed_on_replay(self):
        instance = build_random_instance(task_count=10, driver_count=3, seed=11)
        config = BatchConfig(window_s=60.0, horizon=4, forecast="oracle")
        outcome = BatchedSimulator(instance, config).run()
        assert outcome.served_count + len(outcome.rejected_tasks) == instance.task_count


class TestHorizonOneIsMyopic:
    """horizon=1 must add exactly nothing (contract 18's degradation leg)."""

    def test_replay_bit_identical(self):
        instance = build_random_instance(task_count=40, driver_count=8, seed=21)
        myopic = BatchedSimulator(instance, BatchConfig(window_s=60.0)).run()
        degraded = BatchedSimulator(
            instance, BatchConfig(window_s=60.0, horizon=1, overlap=0)
        ).run()
        assert outcome_fingerprint(degraded) == outcome_fingerprint(myopic)

    def test_stream_bit_identical(self):
        instance = build_random_instance(task_count=40, driver_count=8, seed=22)
        myopic = run_streamed(instance, BatchConfig(window_s=60.0))
        degraded = run_streamed(instance, BatchConfig(window_s=60.0, horizon=1))
        assert outcome_fingerprint(degraded) == outcome_fingerprint(myopic)


class TestFlatProfileParity:
    """An all-ones multi-window profile is the default one-window model,
    bit for bit."""

    def test_replay_bit_identical(self):
        instance = build_random_instance(task_count=40, driver_count=8, seed=23)
        plain = instance.cost_model.travel_model
        flat = replace(
            plain, window_s=900.0,
            speed_factors=(1.0,) * 8, cost_factors=(1.0,) * 8,
        )
        config = BatchConfig(window_s=60.0)
        baseline = BatchedSimulator(instance, config).run()
        flat_run = BatchedSimulator(with_travel_model(instance, flat), config).run()
        assert outcome_fingerprint(flat_run) == outcome_fingerprint(baseline)

    def test_replay_bit_identical_under_horizon(self):
        instance = build_random_instance(task_count=40, driver_count=8, seed=24)
        plain = instance.cost_model.travel_model
        flat = replace(
            plain, window_s=600.0, speed_factors=(1.0,) * 4, cost_factors=(1.0,) * 4
        )
        config = BatchConfig(**HORIZON_CONFIG)
        baseline = BatchedSimulator(instance, config).run()
        flat_run = BatchedSimulator(with_travel_model(instance, flat), config).run()
        assert outcome_fingerprint(flat_run) == outcome_fingerprint(baseline)


class TestTimeVaryingModel:
    def make_time_varying_instance(self, seed=25):
        instance = build_random_instance(task_count=40, driver_count=8, seed=seed)
        tasks = instance.tasks
        publishable = [t for t in tasks if t.is_publishable]
        origin = min(t.publish_ts for t in publishable)
        span = max(t.start_deadline_ts for t in tasks) - origin
        window = max(span / 6.0, 1.0)
        varying = replace(
            instance.cost_model.travel_model,
            window_s=window,
            speed_factors=(1.0, 0.7, 0.7, 1.0, 1.2, 1.0),
            cost_factors=(1.0, 1.1, 1.1, 1.0, 1.0, 1.0),
            origin_ts=origin,
        )
        return with_travel_model(instance, varying)

    def test_time_variation_changes_outcomes(self):
        instance = self.make_time_varying_instance()
        varying = instance.cost_model.travel_model
        plain = with_travel_model(
            instance, replace(varying, speed_factors=(1.0,), cost_factors=(1.0,))
        )
        config = BatchConfig(window_s=60.0)
        varying_run = BatchedSimulator(instance, config).run()
        plain_run = BatchedSimulator(plain, config).run()
        assert outcome_fingerprint(varying_run) != outcome_fingerprint(plain_run)

    def test_stream_equals_replay(self):
        instance = self.make_time_varying_instance(seed=26)
        config = BatchConfig(window_s=60.0)
        replay = BatchedSimulator(instance, config).run()
        streamed = run_streamed(instance, config)
        assert outcome_fingerprint(streamed) == outcome_fingerprint(replay)

    def test_stream_equals_replay_under_horizon(self):
        instance = self.make_time_varying_instance(seed=27)
        config = BatchConfig(**HORIZON_CONFIG)
        replay = BatchedSimulator(instance, config).run()
        streamed = run_streamed(instance, config)
        assert outcome_fingerprint(streamed) == outcome_fingerprint(replay)

    def test_task_costs_resolve_at_pickup_deadline(self):
        instance = self.make_time_varying_instance(seed=28)
        model = instance.cost_model
        varying = model.travel_model
        for task in instance.tasks[:10]:
            window_model = varying.at(task.start_deadline_ts)
            distance = model.task_distance_km(task)
            assert model.task_cost(task) == window_model.cost_for_distance(distance)
            assert model.task_duration_s(task) == window_model.time_for_distance_s(
                distance
            )


class TestPlannerMechanics:
    def make_planner(self):
        instance = build_random_instance(task_count=30, driver_count=6, seed=31)
        planner = LookaheadPlanner.build(instance, BatchConfig(**HORIZON_CONFIG))
        assert planner is not None
        return planner, instance

    def test_build_without_fleet_returns_none(self):
        empty = MarketInstance.create(
            drivers=[],
            tasks=build_random_instance(task_count=5, seed=31).tasks,
            cost_model=MarketCostModel(flat_travel_model()),
        )
        assert LookaheadPlanner.build(empty, BatchConfig(**HORIZON_CONFIG)) is None

    def test_pressure_normalised_to_unit_interval(self):
        planner, instance = self.make_planner()
        planner.observe_window(0, instance.tasks)
        pressure = np.array(
            [planner.pressure_at(c) for c in planner.grid.centers]
        )
        assert pressure.max() == pytest.approx(1.0)
        assert (pressure >= 0.0).all() and (pressure <= 1.0).all()


class TestForecastHeatmap:
    def test_heatmap_normalises_to_mean_positive_zone(self):
        grid = ZoneGrid(PORTO, rows=2, cols=2)
        heatmap = ForecastHeatmap(grid)
        heatmap.update(np.array([3.0, 1.0, 0.0, 0.0]))
        # mean positive count is 2.0 -> scale 0.5
        assert heatmap.demand_at(grid.centers[0], 0.0) == pytest.approx(1.5)
        assert heatmap.demand_at(grid.centers[2], 0.0) == 0.0

    def test_hottest_zones_ranked_and_truncated_at_zero(self):
        grid = ZoneGrid(PORTO, rows=2, cols=2)
        heatmap = ForecastHeatmap(grid)
        heatmap.update(np.array([1.0, 4.0, 0.0, 2.0]))
        zones = heatmap.hottest_zones(0.0, top=4)
        assert [grid.zone_of(p) for p, _ in zones] == [1, 3, 0]
        with pytest.raises(ValueError):
            heatmap.hottest_zones(0.0, top=0)

    def test_empty_field_has_no_hot_zones(self):
        grid = ZoneGrid(PORTO, rows=2, cols=2)
        heatmap = ForecastHeatmap(grid)
        heatmap.update(np.zeros(4))
        assert heatmap.hottest_zones(0.0) == []
        assert heatmap.demand_at(grid.centers[0], 0.0) == 0.0


class TestHorizonEffect:
    def test_oracle_horizon_changes_dispatch(self):
        """Lookahead with a real forecast must actually reshape the run."""
        instance = build_random_instance(task_count=100, driver_count=12, seed=33)
        myopic = BatchedSimulator(instance, BatchConfig(window_s=60.0)).run()
        horizon = BatchedSimulator(
            instance,
            BatchConfig(window_s=60.0, horizon=16, overlap=4, forecast="oracle"),
        ).run()
        assert outcome_fingerprint(horizon) != outcome_fingerprint(myopic)

    def test_horizon_run_is_deterministic(self):
        instance = build_random_instance(task_count=40, driver_count=8, seed=34)
        config = BatchConfig(window_s=60.0, horizon=8, overlap=2, forecast="oracle")
        first = BatchedSimulator(instance, config).run()
        second = BatchedSimulator(instance, config).run()
        assert outcome_fingerprint(first) == outcome_fingerprint(second)
