"""Tests for the spatial market partitioner and its one shard geometry."""

import dataclasses
import random

import pytest

import repro.distributed
from repro.distributed import DistributedCoordinator, SpatialPartitioner, ZonePartition
from repro.core import DriverPlan
from repro.distributed.stream import merge_shard_plans
from repro.geo import BEIJING, NYC, PORTO, BoundingBox, GeoPoint
from repro.market import Driver, MarketCostModel, MarketInstance, Task

from ..conftest import build_random_instance, plan_of

CITIES = {"porto": PORTO, "nyc": NYC, "beijing": BEIJING}
GRIDS = ((1, 1), (2, 2), (3, 3), (4, 2), (5, 7))


@pytest.fixture(scope="module")
def instance():
    return build_random_instance(task_count=60, driver_count=15, seed=33)


def task_at(index, point):
    return Task(
        task_id=f"task-{index}",
        publish_ts=float(index),
        source=point,
        destination=point,
        start_deadline_ts=index + 600.0,
        end_deadline_ts=index + 1200.0,
        price=10.0,
        distance_km=0.0,
    )


def driver_at(index, point):
    return Driver(
        driver_id=f"driver-{index}",
        source=point,
        destination=point,
        start_ts=0.0,
        end_ts=3600.0,
    )


def market_at(points):
    """One task and one driver at every point."""
    return MarketInstance(
        drivers=tuple(driver_at(i, p) for i, p in enumerate(points)),
        tasks=tuple(task_at(i, p) for i, p in enumerate(points)),
        cost_model=MarketCostModel(),
    )


def probe_points(region, rows, cols, seed=7):
    """Every corner and edge midpoint of every grid box, two points outside
    the region, and seeded random points inside it."""
    points = []
    for box in region.split(rows, cols):
        mid_lat, mid_lon = box.center.lat, box.center.lon
        for lat in (box.south, mid_lat, box.north):
            for lon in (box.west, mid_lon, box.east):
                if (lat, lon) != (mid_lat, mid_lon):
                    points.append(GeoPoint(lat, lon))
    points.append(GeoPoint(region.north + 0.01, region.east + 0.01))
    points.append(GeoPoint(region.south - 0.01, region.west - 0.01))
    rng = random.Random(seed)
    points.extend(region.sample_uniform(rng) for _ in range(40))
    return points


def plan_owners(plan, count):
    """(task owners, driver owners) by point index from a partition plan."""
    tasks, drivers = [None] * count, [None] * count
    for shard in plan.shards:
        for g in shard.global_task_indices:
            tasks[g] = shard.spec.shard_id
        for driver_id in shard.global_driver_ids:
            drivers[int(driver_id.split("-")[1])] = shard.spec.shard_id
    return tasks, drivers


def stream_task_owners(partitioner, points):
    """The shard ``open_stream`` routes a task at each point to: one
    single-task batch at a time into a driverless stream, read off the shard
    whose load grew."""
    owners = []
    with DistributedCoordinator(partitioner) as coordinator:
        with coordinator.open_stream(()) as session:
            for index, point in enumerate(points):
                before = session.shard_task_counts
                session.append_batch([task_at(index, point)])
                grew = [b - a for a, b in zip(before, session.shard_task_counts)]
                owners.append(grew.index(1))
    return owners


class TestPartitioner:
    def test_invalid_grid(self):
        with pytest.raises(ValueError):
            SpatialPartitioner(PORTO, 0, 3)

    def test_shard_count(self):
        assert SpatialPartitioner(PORTO, 2, 3).shard_count == 6

    def test_single_shard_contains_everything(self, instance):
        plan = SpatialPartitioner(PORTO, 1, 1).partition(instance)
        assert plan.shard_count == 1
        shard = plan.shards[0]
        assert shard.task_count == instance.task_count
        assert shard.driver_count == instance.driver_count

    def test_tasks_partitioned_without_loss_or_duplication(self, instance):
        plan = SpatialPartitioner(PORTO, 3, 3).partition(instance)
        all_indices = [i for shard in plan.shards for i in shard.global_task_indices]
        assert sorted(all_indices) == list(range(instance.task_count))

    def test_drivers_partitioned_without_loss_or_duplication(self, instance):
        plan = SpatialPartitioner(PORTO, 3, 3).partition(instance)
        all_drivers = [d for shard in plan.shards for d in shard.global_driver_ids]
        assert sorted(all_drivers) == sorted(d.driver_id for d in instance.drivers)

    def test_tasks_routed_to_shard_of_their_pickup(self, instance):
        partitioner = SpatialPartitioner(PORTO, 2, 2)
        plan = partitioner.partition(instance)
        for shard in plan.shards:
            for local_index, global_index in enumerate(shard.global_task_indices):
                task = instance.tasks[global_index]
                assert partitioner.zones.route([task.source])[0] == shard.spec.shard_id
                # Local instance stores the same task object.
                assert shard.instance.tasks[local_index].task_id == task.task_id

    def test_shard_regions_tile_the_city(self, instance):
        plan = SpatialPartitioner(PORTO, 2, 2).partition(instance)
        total_area = sum(b.width_km() * b.height_km() for s in plan.shards for b in s.spec.boxes)
        assert total_area == pytest.approx(PORTO.width_km() * PORTO.height_km(), rel=0.01)

    def test_spec_boxes_are_the_grid_cells(self, instance):
        plan = SpatialPartitioner(PORTO, 2, 2).partition(instance)
        for shard, box in zip(plan.shards, PORTO.split(2, 2)):
            assert shard.spec.boxes == (box,)


class TestOneShardGeometry:
    """Offline shards, stream shards and a re-read plan are cut by the same
    ``ZonePartition``, so every point has one owner in all three."""

    @pytest.mark.parametrize("rows,cols", GRIDS)
    @pytest.mark.parametrize("city", sorted(CITIES))
    def test_partition_stream_and_replayed_plan_agree(self, city, rows, cols):
        region = CITIES[city]
        points = probe_points(region, rows, cols)
        market = market_at(points)
        partitioner = SpatialPartitioner(region, rows, cols)
        plan = partitioner.partition(market)
        offline_tasks, offline_drivers = plan_owners(plan, len(points))
        replayed = ZonePartition(region, [shard.spec.boxes for shard in plan.shards])
        assert offline_drivers == offline_tasks
        assert stream_task_owners(partitioner, points) == offline_tasks
        assert replayed.route(points).tolist() == offline_tasks

    def test_row_boundary_point_lands_in_one_shard(self):
        """The point on PORTO's 2x2 row boundary: solve() and open_stream()
        put its task and its driver in the same shard."""
        point = GeoPoint(41.175, -8.655)
        market = market_at([point])
        with DistributedCoordinator(SpatialPartitioner(PORTO, 2, 2)) as coordinator:
            report = coordinator.solve(market).report
            with coordinator.open_stream(market.drivers) as session:
                (pending,) = session.append_batch(market.tasks)
        (owner,) = [i for i, count in enumerate(report.per_shard_task_counts) if count]
        # The one shard with a task is the one live shard: its driver is there.
        assert report.empty_shard_count == 3
        assert pending.shard_id == owner == 2


class TestZoneTiling:
    def test_grid_boxes_tile(self):
        for region in CITIES.values():
            for rows, cols in GRIDS:
                assert ZonePartition.from_grid(region, rows, cols).shard_count == rows * cols

    def test_overlapping_groups_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            ZonePartition(PORTO, [(PORTO,), (PORTO,)])

    def test_uncovered_area_rejected(self):
        west, _east = PORTO.split(1, 2)
        with pytest.raises(ValueError, match="cover"):
            ZonePartition(PORTO, [(west,)])

    def test_box_outside_region_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            ZonePartition(PORTO, [(PORTO,), (NYC,)])

    def test_float_slack_tolerated_and_stragglers_still_owned(self):
        mid = (PORTO.south + PORTO.north) / 2.0
        lower = BoundingBox(PORTO.south, PORTO.west, mid - 1e-12, PORTO.east)
        upper = BoundingBox(mid, PORTO.west, PORTO.north, PORTO.east)
        zones = ZonePartition(PORTO, [(lower,), (upper,)])
        # A point in the sliver no box owns goes to the nearest box centre.
        assert list(zones.route([GeoPoint(mid - 5e-13, -8.6)])) == [0]


class TestRemovedSurface:
    def test_load_report_option_is_gone(self, instance):
        coordinator = DistributedCoordinator(SpatialPartitioner(PORTO, 2, 2))
        prior = coordinator.solve(instance)
        with pytest.raises(TypeError):
            coordinator.solve(instance, load_report=prior)

    @pytest.mark.parametrize(
        "name",
        ["LoadAwarePartitioner", "ShardLoadReport", "RebalanceAction", "hull_of_boxes"],
    )
    def test_removed_names_are_gone(self, name):
        assert not hasattr(repro.distributed, name)
        assert not hasattr(repro.distributed.partition, name)

    def test_stream_regions_option_is_gone(self, instance):
        regions = ((PORTO,),)
        with DistributedCoordinator(SpatialPartitioner(PORTO, 1, 1)) as coordinator:
            with pytest.raises(TypeError):
                coordinator.open_stream(instance.drivers, regions=regions)
            with pytest.raises(TypeError):
                coordinator.solve_stream(instance, regions=regions)

    def test_attribute_sets(self, instance):
        def public(obj):
            return {name for name in dir(obj) if not name.startswith("_")}

        partitioner = SpatialPartitioner(PORTO, 2, 2)
        assert public(partitioner) == {"zones", "box_groups", "shard_count", "partition"}
        plan = partitioner.partition(instance)
        assert public(plan) == {"shards", "shard_count"}
        assert public(plan.shards[0].spec) == {"shard_id", "boxes"}
        assert {f.name for f in dataclasses.fields(plan.shards[0].spec)} == {
            "shard_id",
            "boxes",
        }
        assert not hasattr(ZonePartition, "split_group")
        assert not hasattr(BoundingBox, "cell_indices")
        assert hasattr(BoundingBox, "cell_index")


class TestMergeShardPlans:
    def test_local_indices_map_back_to_global(self, instance):
        plan = SpatialPartitioner(PORTO, 2, 2).partition(instance)
        shard = max(plan.shards, key=lambda s: s.task_count)
        driver_id = instance.drivers[0].driver_id
        local = (DriverPlan(driver_id, (0,), 1.5, (7.0,)),)
        merged = merge_shard_plans(instance, [(shard.global_task_indices, local)], (3,))
        assert plan_of(merged, driver_id) == DriverPlan(
            driver_id, (shard.global_task_indices[0],), 1.5, (7.0,)
        )
        assert merged.rejected_tasks == (3,)

    def test_unplanned_drivers_are_idle_in_fleet_order(self, instance):
        merged = merge_shard_plans(instance, [])
        assert merged.plans == tuple(
            DriverPlan(driver.driver_id, (), 0.0) for driver in instance.drivers
        )
        assert merged.rejected_tasks == ()
