"""Tests for the experiment configuration and workload builder."""

import pytest

from repro.experiments import (
    DEFAULT_SCALE,
    PAPER_SCALE,
    TINY_SCALE,
    ExperimentConfig,
    ExperimentScale,
    build_day_trips,
    build_workload,
)
from repro.trace import WorkingModel


class TestExperimentScale:
    def test_paper_scale_matches_paper(self):
        assert PAPER_SCALE.task_count == 1000
        assert PAPER_SCALE.driver_counts[0] == 20
        assert PAPER_SCALE.max_drivers == 300

    def test_invalid_scales(self):
        with pytest.raises(ValueError):
            ExperimentScale(task_count=0, driver_counts=(1,), trips_generated=10)
        with pytest.raises(ValueError):
            ExperimentScale(task_count=10, driver_counts=(), trips_generated=20)
        with pytest.raises(ValueError):
            ExperimentScale(task_count=10, driver_counts=(0,), trips_generated=20)
        with pytest.raises(ValueError):
            ExperimentScale(task_count=100, driver_counts=(5,), trips_generated=10)

    def test_default_scale_is_smaller_than_paper_scale(self):
        assert DEFAULT_SCALE.task_count <= PAPER_SCALE.task_count
        assert DEFAULT_SCALE.max_drivers <= PAPER_SCALE.max_drivers


class TestExperimentConfig:
    def test_pricing_policy_uses_surge_multiplier(self):
        cfg = ExperimentConfig(surge_multiplier=1.7)
        policy = cfg.pricing_policy()
        assert policy.alpha == pytest.approx(1.7)


class TestBuildWorkload:
    @pytest.fixture(scope="class")
    def workload(self):
        return build_workload(ExperimentConfig(scale=TINY_SCALE))

    def test_day_trips_count(self):
        trips = build_day_trips(ExperimentConfig(scale=TINY_SCALE))
        assert len(trips) == TINY_SCALE.task_count

    def test_workload_sizes(self, workload):
        assert workload.task_count == TINY_SCALE.task_count
        assert len(workload.driver_pool) == TINY_SCALE.max_drivers
        assert workload.base_instance.driver_count == TINY_SCALE.max_drivers

    def test_instance_with_drivers_prefix_property(self, workload):
        small = workload.instance_with_drivers(2)
        bigger = workload.instance_with_drivers(6)
        assert small.driver_count == 2
        assert bigger.driver_count == 6
        assert [d.driver_id for d in small.drivers] == [d.driver_id for d in bigger.drivers[:2]]
        # Tasks and the shared network are reused across the sweep.
        assert small.task_network is workload.base_instance.task_network

    def test_sweep_points_share_one_lazy_network_build(self, monkeypatch):
        """``instance_with_drivers`` builds no network (a city that is
        sharded first never needs the whole-city one), and sweep points that
        do read it share a single build with the base instance."""
        import repro.market.instance as instance_module

        workload = build_workload(ExperimentConfig(scale=TINY_SCALE))
        builds = []
        build = instance_module.build_task_network
        monkeypatch.setattr(
            instance_module,
            "build_task_network",
            lambda *args: builds.append(args) or build(*args),
        )
        small = workload.instance_with_drivers(2)
        bigger = workload.instance_with_drivers(6)
        assert builds == []
        assert "task_network" not in workload.base_instance.__dict__
        assert small.task_network is bigger.task_network
        assert workload.base_instance.task_network is small.task_network
        assert len(builds) == 1

    def test_instance_with_drivers_bounds(self, workload):
        with pytest.raises(ValueError):
            workload.instance_with_drivers(0)
        with pytest.raises(ValueError):
            workload.instance_with_drivers(10_000)

    def test_working_model_respected(self):
        workload = build_workload(
            ExperimentConfig(scale=TINY_SCALE, working_model=WorkingModel.HOME_WORK_HOME)
        )
        assert all(d.source == d.destination for d in workload.driver_pool)

    def test_workload_is_deterministic(self):
        a = build_workload(ExperimentConfig(scale=TINY_SCALE))
        b = build_workload(ExperimentConfig(scale=TINY_SCALE))
        assert [t.task_id for t in a.base_instance.tasks] == [
            t.task_id for t in b.base_instance.tasks
        ]
        assert [d.driver_id for d in a.driver_pool] == [d.driver_id for d in b.driver_pool]
        assert [t.price for t in a.base_instance.tasks] == [
            t.price for t in b.base_instance.tasks
        ]
