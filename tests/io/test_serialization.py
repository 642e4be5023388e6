"""Tests for JSON serialization of instances and solutions."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from repro.geo import GeoPoint, ManhattanEstimator, TravelModel
from repro.io import (
    SerializationError,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    load_solution,
    save_instance,
    save_solution,
    solution_from_dict,
    solution_to_dict,
    travel_model_from_dict,
    travel_model_to_dict,
)
from repro.io.serialization import driver_from_dict, point_from_dict, task_from_dict
from repro.offline import greedy_assignment
from repro.online import MaxMarginDispatcher, run_online

from ..conftest import build_chain_instance, build_random_instance


@pytest.fixture(scope="module")
def instance():
    return build_random_instance(task_count=25, driver_count=6, seed=101)


class TestTravelModelRoundTrip:
    def test_haversine_round_trip(self):
        model = TravelModel(estimator=__import__("repro.geo", fromlist=["HaversineEstimator"]).HaversineEstimator(1.25), speed_kmh=28.0, cost_per_km=0.15)
        data = travel_model_to_dict(model)
        rebuilt = travel_model_from_dict(data)
        assert rebuilt.speed_kmh == 28.0
        assert rebuilt.cost_per_km == 0.15
        assert rebuilt.estimator.circuity == 1.25

    def test_manhattan_round_trip(self):
        model = TravelModel(ManhattanEstimator(), speed_kmh=25.0, cost_per_km=0.2)
        rebuilt = travel_model_from_dict(travel_model_to_dict(model))
        assert isinstance(rebuilt.estimator, ManhattanEstimator)

    def test_unknown_estimator_rejected(self):
        with pytest.raises(SerializationError):
            travel_model_from_dict({"estimator": "teleporter"})

    def test_flat_model_writes_no_profile(self):
        model = TravelModel(ManhattanEstimator(), speed_kmh=25.0, cost_per_km=0.2)
        assert set(travel_model_to_dict(model)) == {
            "estimator", "circuity", "speed_kmh", "cost_per_km"
        }

    def test_documents_without_a_profile_load_flat(self):
        rebuilt = travel_model_from_dict({"estimator": "haversine", "speed_kmh": 28.0})
        assert rebuilt.is_flat
        assert (rebuilt.window_s, rebuilt.speed_factors, rebuilt.origin_ts) == (
            3600.0, (1.0,), 0.0
        )

    def test_profile_round_trip(self):
        model = TravelModel(
            ManhattanEstimator(), speed_kmh=25.0, cost_per_km=0.2, window_s=900.0,
            speed_factors=(1.0, 0.55, 1.0), cost_factors=(1.0, 1.3, 1.0),
            origin_ts=1800.0,
        )
        data = json.loads(json.dumps(travel_model_to_dict(model)))
        assert travel_model_from_dict(data) == model


class TestWindowedSlowdownRoundTrip:
    """A saved windowed-slowdown market reloads with its time profile, so
    every per-task column is unchanged."""

    def test_task_columns_survive_save_and_load(self, tmp_path):
        from repro.scenarios import ScenarioSpec, TravelSlowdown, compile_scenario

        spec = ScenarioSpec(
            name="storm",
            events=(TravelSlowdown(speed_factor=0.5, start_hour=7.0, end_hour=10.0),),
            trip_count=300,
            driver_count=10,
        )
        instance = compile_scenario(spec).instance
        path = tmp_path / "storm.json"
        save_instance(instance, path)
        loaded = load_instance(path)
        assert loaded.cost_model.travel_model == instance.cost_model.travel_model
        before, after = instance.task_columns, loaded.task_columns
        for name in before.__dataclass_fields__:
            assert np.array_equal(getattr(before, name), getattr(after, name)), name


class TestInstanceRoundTrip:
    def test_dict_round_trip_preserves_everything(self, instance):
        data = instance_to_dict(instance)
        rebuilt = instance_from_dict(data)
        assert rebuilt.driver_count == instance.driver_count
        assert rebuilt.task_count == instance.task_count
        for original, loaded in zip(instance.drivers, rebuilt.drivers):
            assert original == loaded
        for original, loaded in zip(instance.tasks, rebuilt.tasks):
            assert original == loaded
        assert (
            rebuilt.cost_model.travel_model.speed_kmh
            == instance.cost_model.travel_model.speed_kmh
        )

    def test_file_round_trip(self, instance, tmp_path):
        path = tmp_path / "market.json"
        save_instance(instance, path)
        loaded = load_instance(path)
        assert loaded.task_count == instance.task_count
        # The JSON document itself is valid and self-describing.
        raw = json.loads(path.read_text())
        assert raw["format"] == "repro-market"

    def test_round_trip_preserves_solver_results(self, instance, tmp_path):
        """Solving the reloaded instance gives the same objective value."""
        path = tmp_path / "market.json"
        save_instance(instance, path)
        loaded = load_instance(path)
        assert greedy_assignment(loaded).total_value == pytest.approx(
            greedy_assignment(instance).total_value, rel=1e-9
        )

    def test_wrong_format_rejected(self):
        with pytest.raises(SerializationError):
            instance_from_dict({"format": "something-else", "version": 1})
        with pytest.raises(SerializationError):
            instance_from_dict({"format": "repro-market", "version": 999})

    def test_missing_fields_rejected(self):
        with pytest.raises(SerializationError):
            instance_from_dict(
                {"format": "repro-market", "version": 1, "drivers": [{"driver_id": "d"}], "tasks": []}
            )


class TestSolutionRoundTrip:
    def test_solution_round_trip(self, instance, tmp_path):
        solution = greedy_assignment(instance)
        path = tmp_path / "solution.json"
        save_solution(solution, path, algorithm="greedy")
        loaded = load_solution(path, instance)
        assert loaded.total_value == pytest.approx(solution.total_value, rel=1e-9)
        assert loaded.assignment() == solution.assignment()
        loaded.validate()
        raw = json.loads(path.read_text())
        assert raw["algorithm"] == "greedy"

    def test_solution_wrong_format_rejected(self, instance):
        with pytest.raises(SerializationError):
            solution_from_dict({"format": "nope"}, instance)


class TestOnlineSolutionRoundTrip:
    def test_online_solution_round_trip(self, instance, tmp_path):
        solution = run_online(instance, MaxMarginDispatcher())
        path = tmp_path / "online.json"
        save_solution(solution, path, algorithm="maxMargin")
        loaded = load_solution(path, instance)
        # Plans (with their arrival times) and rejections survive the round
        # trip value-identically, and so do the metrics derived from them.
        assert loaded.plans == solution.plans
        assert any(plan.arrival_times for plan in loaded.plans)
        assert loaded.rejected_tasks == solution.rejected_tasks
        assert loaded.wait_times_s() == solution.wait_times_s()
        assert loaded.summary() == solution.summary()

    def test_untracked_arrivals_are_null_in_the_document(self, instance):
        solution = run_online(instance, MaxMarginDispatcher())
        busy = next(i for i, plan in enumerate(solution.plans) if plan.task_indices)
        plan = solution.plans[busy]
        untracked = replace(plan, arrival_times=(math.nan,) * plan.task_count)
        plans = solution.plans[:busy] + (untracked,) + solution.plans[busy + 1 :]
        data = json.loads(json.dumps(solution_to_dict(replace(solution, plans=plans))))
        assert data["plans"][busy]["arrival_times"] == [None] * plan.task_count
        rebuilt = solution_from_dict(data, instance)
        assert all(math.isnan(ts) for ts in rebuilt.plans[busy].arrival_times)
        assert set(rebuilt.wait_times_s()) == solution.served_tasks() - set(plan.task_indices)

    def test_documents_without_arrivals_or_rejections_still_load(self, instance):
        """Documents written before online solutions shared this format
        lack arrival_times and rejected_tasks."""
        solution = run_online(instance, MaxMarginDispatcher())
        data = solution_to_dict(solution)
        for entry in data["plans"]:
            del entry["arrival_times"]
        del data["rejected_tasks"]
        rebuilt = solution_from_dict(data, instance)
        assert rebuilt.assignment() == solution.assignment()
        assert all(plan.arrival_times == () for plan in rebuilt.plans)
        assert rebuilt.rejected_tasks == ()
        assert math.isnan(rebuilt.mean_wait_s)


class TestMalformedDocuments:
    """A bad field raises SerializationError naming it, never a bare
    TypeError / ValueError."""

    POINT = {"lat": 41.15, "lon": -8.61}

    def task(self, **fields):
        return {
            "task_id": "t", "publish_ts": 0.0, "source": self.POINT,
            "destination": self.POINT, "start_deadline_ts": 60.0,
            "end_deadline_ts": 120.0, "price": 5.0, **fields,
        }

    def driver(self, **fields):
        return {
            "driver_id": "d", "source": self.POINT, "destination": self.POINT,
            "start_ts": 0.0, "end_ts": 3600.0, **fields,
        }

    @pytest.mark.parametrize(
        "data, field",
        [({"speed_factors": 5}, "speed_factors"), ({"window_s": "x"}, "window_s")],
    )
    def test_travel_model_fields(self, data, field):
        with pytest.raises(SerializationError, match=field):
            travel_model_from_dict(data)

    def test_point_field(self):
        with pytest.raises(SerializationError, match="lat"):
            point_from_dict({"lat": "north", "lon": 0.0})

    def test_task_field(self):
        assert task_from_dict(self.task()).price == 5.0
        with pytest.raises(SerializationError, match="price"):
            task_from_dict(self.task(price="cheap"))

    def test_driver_field(self):
        assert driver_from_dict(self.driver()).end_ts == 3600.0
        with pytest.raises(SerializationError, match="start_ts"):
            driver_from_dict(self.driver(start_ts=[0]))

    def test_model_validation_is_a_serialization_error(self):
        with pytest.raises(SerializationError, match="latitude"):
            point_from_dict({"lat": 95.0, "lon": 0.0})

    def test_market_that_is_not_an_object(self):
        with pytest.raises(SerializationError, match="object"):
            instance_from_dict([])
