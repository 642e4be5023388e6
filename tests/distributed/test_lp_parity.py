"""Parity contract 17 — the exact tier through the distributed fan-out.

``solver_name="lp"`` (and ``"auto"``) must merge **bit-identically** across
the serial and process executors, and a shared warm pool must match
a solve on a pool of its own — exactly like the greedy contracts 4/14, but now the payload
also carries per-shard :class:`ShardBounds`, so the fingerprint includes the
whole bound sandwich.  On top of the structural parity, the gap invariant:
every reported optimality gap is ``>= 0`` on every shard and in the
aggregate.
"""

import math

import pytest

from repro.distributed import (
    DistributedCoordinator,
    PersistentWorkerPool,
    SpatialPartitioner,
)
from repro.geo import PORTO
from repro.offline import ShardBounds

from ..conftest import build_random_instance

EXECUTORS = ("serial", "process")


@pytest.fixture(scope="module")
def instance():
    return build_random_instance(task_count=60, driver_count=15, seed=37)


def merged_fingerprint(result):
    """Everything contract 17 pins: solution, per-shard values *and* the full
    per-shard bound records (floats compared exactly — bit-identical)."""
    return (
        result.solution.plans,
        result.report.total_value,
        result.report.served_count,
        result.report.per_shard_values,
        result.report.per_shard_bounds,
    )


class TestContract17ExecutorParity:
    @pytest.mark.parametrize("solver", ["lp", "auto"])
    def test_all_executors_merge_identically(self, instance, solver):
        partitioner = SpatialPartitioner(PORTO, 2, 2)
        results = {
            executor: DistributedCoordinator(
                partitioner, solver, executor=executor, max_workers=2
            ).solve(instance)
            for executor in EXECUTORS
        }
        reference = merged_fingerprint(results["serial"])
        assert merged_fingerprint(results["process"]) == reference

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_pool_matches_fork_path(self, instance, executor):
        partitioner = SpatialPartitioner(PORTO, 2, 2)
        own = DistributedCoordinator(
            partitioner, "lp", executor=executor, max_workers=2
        ).solve(instance)
        with PersistentWorkerPool(executor=executor, worker_count=2) as pool:
            pooled = DistributedCoordinator(
                partitioner, "lp", executor=executor, max_workers=2
            ).solve(instance, pool=pool)
        assert merged_fingerprint(pooled) == merged_fingerprint(own)

    def test_auto_threshold_is_part_of_the_wire_format(self, instance):
        """Two coordinators with different thresholds may legitimately pick
        different tiers per shard — but each must still be executor-stable."""
        partitioner = SpatialPartitioner(PORTO, 2, 2)
        for threshold in (0.0, 0.05):
            serial = DistributedCoordinator(
                partitioner, "auto", executor="serial", gap_threshold=threshold
            ).solve(instance)
            process = DistributedCoordinator(
                partitioner, "auto", executor="process", gap_threshold=threshold,
                max_workers=2,
            ).solve(instance)
            assert merged_fingerprint(process) == merged_fingerprint(serial)


class TestContract17GapInvariants:
    def test_every_shard_reports_a_nonnegative_gap(self, instance):
        result = DistributedCoordinator(
            SpatialPartitioner(PORTO, 2, 2), "lp"
        ).solve(instance)
        report = result.report
        assert report.bounds_reported
        assert len(report.per_shard_bounds) == report.shard_count
        for bounds in report.per_shard_bounds:
            assert bounds.optimality_gap >= 0.0
            assert bounds.greedy_gap >= 0.0
            assert bounds.greedy_value <= bounds.lp_value + 1e-6
            assert bounds.lp_value <= bounds.upper_bound + 1e-6

    def test_aggregates_sum_the_shards(self, instance):
        report = DistributedCoordinator(
            SpatialPartitioner(PORTO, 2, 2), "lp"
        ).solve(instance).report
        assert report.greedy_revenue == pytest.approx(
            sum(b.greedy_value for b in report.per_shard_bounds)
        )
        assert report.lp_revenue == pytest.approx(
            sum(b.lp_value for b in report.per_shard_bounds)
        )
        assert report.lp_revenue == pytest.approx(report.total_value, rel=1e-9)
        assert report.optimality_gap >= 0.0
        assert report.greedy_gap >= report.optimality_gap - 1e-12

    def test_lp_never_ships_below_greedy(self, instance):
        partitioner = SpatialPartitioner(PORTO, 2, 2)
        greedy = DistributedCoordinator(partitioner, "greedy").solve(instance)
        lp = DistributedCoordinator(partitioner, "lp").solve(instance)
        assert lp.solution.total_value >= greedy.solution.total_value - 1e-9

    def test_degenerate_shards_carry_zero_bounds(self, instance):
        """An 8x8 grid leaves most cells empty; every degenerate shard must
        still carry a (zero) bounds record so the aggregate never sees a
        None hole."""
        report = DistributedCoordinator(
            SpatialPartitioner(PORTO, 8, 8), "lp"
        ).solve(instance).report
        assert report.bounds_reported
        assert len(report.per_shard_bounds) == 64
        zero = ShardBounds.zero()
        empty_bounds = [
            b for b, n in zip(report.per_shard_bounds, report.per_shard_task_counts)
            if n == 0
        ]
        assert empty_bounds and all(b == zero for b in empty_bounds)

    def test_heuristic_solvers_report_no_bounds(self, instance):
        report = DistributedCoordinator(
            SpatialPartitioner(PORTO, 2, 2), "greedy"
        ).solve(instance).report
        assert report.per_shard_bounds == ()
        assert not report.bounds_reported
        assert math.isnan(report.optimality_gap)
        assert math.isnan(report.greedy_revenue)
