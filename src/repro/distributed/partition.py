"""Spatial partitioning of a city-scale market.

The paper notes that the algorithms "have to be distributed — in real
scenarios, we can partition the map in city's scale, and then design
algorithms to deal with the tasks in each city", while warning that
partitioning a single city further into districts loses the cross-district
trips.  This module implements exactly that trade-off so it can be measured:
a market instance is split into zone shards, each shard is solved
independently, and the ablation benchmark quantifies how much solution
quality is sacrificed for the speed-up as the shard count grows.

Tasks are routed to the shard containing their pickup point; drivers are
routed to the shard containing their source.  Shards therefore have disjoint
task sets, so merging shard solutions can never assign a task twice.

The partitioner owns exactly one shard geometry, a :class:`ZonePartition`
(``partitioner.zones``): :meth:`SpatialPartitioner.partition` and the live
streams (:mod:`repro.distributed.stream`) both route through its
:meth:`~ZonePartition.split`, so the two execution modes always agree on
which shard owns a point.  :class:`SpatialPartitioner` cuts a blind, uniform
``rows x cols`` grid; a live stream may then rewrite its own copy of the
geometry between windows — split the hottest shard, merge cold ones — by
the one rule :func:`plan_rebalance_action` under a :class:`RebalancePolicy`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..geo import BoundingBox, GeoPoint
from ..geo.batch import coord_array
from ..market.instance import MarketInstance

#: Float slack of the tiling check, as a fraction of the region's extent
#: (box edges) or area (overlaps and coverage).
TILING_TOLERANCE = 1e-9


@dataclass(frozen=True, slots=True)
class ShardSpec:
    """Identity and extent of one shard: ``boxes`` is the shard's exact box
    group (one grid cell, a split half, or the pooled boxes of a merge)."""

    shard_id: int
    boxes: Tuple[BoundingBox, ...]


@dataclass(frozen=True)
class MarketShard:
    """A shard: its spec, its sub-instance and the index mapping back to the
    parent instance (shard-local task index -> global task index)."""

    spec: ShardSpec
    instance: MarketInstance
    global_task_indices: Tuple[int, ...]
    global_driver_ids: Tuple[str, ...]

    @property
    def task_count(self) -> int:
        """Number of tasks routed into this shard (its per-solve load)."""
        return self.instance.task_count

    @property
    def driver_count(self) -> int:
        """Number of drivers whose source falls inside this shard."""
        return self.instance.driver_count


@dataclass(frozen=True)
class PartitionPlan:
    """The result of partitioning: one shard per box group, every task and
    driver in exactly one of them."""

    shards: Tuple[MarketShard, ...]

    @property
    def shard_count(self) -> int:
        """How many shards the plan produced (including degenerate ones)."""
        return len(self.shards)


class ZonePartition:
    """The shard geometry: each shard owns a *set* of boxes tiling a region.

    A uniform grid is one box per shard (:meth:`from_grid`); the skew-aware
    rebalance produces non-uniform shards — splitting the hottest shard
    replaces one box with its two halves, merging cold shards pools their
    boxes into one shard.  Construction rejects box groups that do not tile
    the region (a box outside it, two boxes overlapping, or area left
    uncovered, each beyond float slack), so every point has exactly one
    owner.  Routing is deterministic:

    * points are first clamped into the outer service region;
    * containment is half-open (``south <= lat < north``) except on the outer
      region's own north/east edges, so every point belongs to **exactly
      one** box — routing is independent of shard order, which is what makes
      a rebalanced stream reproducible as a from-start partition.
    """

    def __init__(
        self,
        region: BoundingBox,
        box_groups: Sequence[Sequence[BoundingBox]],
    ) -> None:
        if not box_groups or any(not group for group in box_groups):
            raise ValueError("every shard needs at least one box")
        self.region = region
        self.box_groups: Tuple[Tuple[BoundingBox, ...], ...] = tuple(
            tuple(group) for group in box_groups
        )
        _check_tiling(region, [box for group in self.box_groups for box in group])

    @classmethod
    def from_grid(cls, region: BoundingBox, rows: int, cols: int) -> "ZonePartition":
        """One single-box shard per cell of a ``rows x cols`` grid."""
        return cls(region, [(box,) for box in region.split(rows, cols)])

    @property
    def shard_count(self) -> int:
        """Number of shards (box groups) the partition routes over."""
        return len(self.box_groups)

    def _box_mask(
        self, box: BoundingBox, lats: np.ndarray, lons: np.ndarray
    ) -> np.ndarray:
        lat_hi = (
            lats <= box.north if box.north >= self.region.north else lats < box.north
        )
        lon_hi = lons <= box.east if box.east >= self.region.east else lons < box.east
        return (lats >= box.south) & lat_hi & (lons >= box.west) & lon_hi

    def route(self, points: Iterable[GeoPoint]) -> np.ndarray:
        """The shard index of every point (clamped into the region first).

        Containment convention: a point belongs to a box when
        ``south <= lat < north`` and ``west <= lon < east`` — half-open on
        the north/east edges — *except* on the outer region's own north/east
        boundary, where the comparison closes (``<=``) so clamped points on
        the region's edge are still owned.  Because the box groups tile the
        region, every point lands in exactly one box and the result is
        independent of the order of the groups.
        """
        coords = coord_array(list(points))
        if coords.shape[0] == 0:
            return np.empty(0, dtype=np.intp)
        lats = np.clip(coords[:, 0], self.region.south, self.region.north)
        lons = np.clip(coords[:, 1], self.region.west, self.region.east)
        out = np.full(coords.shape[0], -1, dtype=np.intp)
        for shard_index, group in enumerate(self.box_groups):
            unassigned = out < 0
            if not unassigned.any():
                break
            for box in group:
                hit = unassigned & self._box_mask(box, lats, lons)
                out[hit] = shard_index
                unassigned &= ~hit
        if (out < 0).any():
            # Float-boundary stragglers (boxes tiling the region only up to
            # float slack): deterministically hand each to the shard whose
            # first box centre is nearest.
            centers = np.array(
                [[g[0].center.lat, g[0].center.lon] for g in self.box_groups]
            )
            for i in np.nonzero(out < 0)[0]:
                d2 = (centers[:, 0] - lats[i]) ** 2 + (centers[:, 1] - lons[i]) ** 2
                out[i] = int(np.argmin(d2))
        return out

    def split(self, points: Iterable[GeoPoint]) -> List[List[int]]:
        """For each shard, in shard order, the input positions it owns (by
        :meth:`route`), in input order — the one "route, then bucket" step
        every offline and streamed shard assignment goes through."""
        buckets: List[List[int]] = [[] for _ in self.box_groups]
        for position, owner in enumerate(self.route(points).tolist()):
            buckets[owner].append(position)
        return buckets


def _check_tiling(region: BoundingBox, boxes: Sequence[BoundingBox]) -> None:
    """Raise ``ValueError`` unless ``boxes`` tile ``region``: none reaches
    outside it, no two overlap by positive area and together they cover all
    of it — each up to :data:`TILING_TOLERANCE`."""
    edges = np.array([[box.south, box.west, box.north, box.east] for box in boxes])
    south, west, north, east = edges.T
    lat_slack = TILING_TOLERANCE * (region.north - region.south)
    lon_slack = TILING_TOLERANCE * (region.east - region.west)
    outside = (
        (south < region.south - lat_slack)
        | (north > region.north + lat_slack)
        | (west < region.west - lon_slack)
        | (east > region.east + lon_slack)
    )
    if outside.any():
        raise ValueError(
            f"shard box {boxes[int(np.argmax(outside))]} lies outside the region {region}"
        )
    area = (region.north - region.south) * (region.east - region.west)
    heights = np.minimum.outer(north, north) - np.maximum.outer(south, south)
    widths = np.minimum.outer(east, east) - np.maximum.outer(west, west)
    overlap = np.clip(heights, 0.0, None) * np.clip(widths, 0.0, None)
    np.fill_diagonal(overlap, 0.0)
    if overlap.max() > TILING_TOLERANCE * area:
        first, second = np.unravel_index(int(np.argmax(overlap)), overlap.shape)
        raise ValueError(f"shard boxes {boxes[first]} and {boxes[second]} overlap")
    covered = float(((north - south) * (east - west)).sum())
    if covered < (1.0 - TILING_TOLERANCE) * area:
        raise ValueError(
            f"shard boxes cover {covered / area:.6f} of the region, not all of it"
        )


class SpatialPartitioner:
    """Splits a market instance into zone shards over one :class:`ZonePartition`.

    ``SpatialPartitioner(region, rows, cols)`` cuts a blind uniform grid.
    :attr:`zones` is the partitioner's only shard geometry: :meth:`partition`
    routes an offline instance through it, and
    :meth:`~repro.distributed.coordinator.DistributedCoordinator.open_stream`
    routes a live stream through the same object.
    """

    def __init__(self, region: BoundingBox, rows: int, cols: int) -> None:
        if rows < 1 or cols < 1:
            raise ValueError("rows and cols must be >= 1")
        self.zones = ZonePartition.from_grid(region, rows, cols)

    @property
    def box_groups(self) -> Tuple[Tuple[BoundingBox, ...], ...]:
        """Every shard's box group, in shard order."""
        return self.zones.box_groups

    @property
    def shard_count(self) -> int:
        """Number of shards the partitioner produces."""
        return self.zones.shard_count

    def partition(self, instance: MarketInstance) -> PartitionPlan:
        """Split ``instance`` into one shard per box group.

        Tasks are routed by pickup and drivers by source through
        :attr:`zones`, so shards own disjoint task sets; drivers stay in
        fleet order within a shard.
        """
        task_buckets = self.zones.split(task.source for task in instance.tasks)
        driver_buckets = self.zones.split(driver.source for driver in instance.drivers)

        shards: List[MarketShard] = []
        for shard_id, boxes in enumerate(self.box_groups):
            task_indices = task_buckets[shard_id]
            drivers = tuple(instance.drivers[i] for i in driver_buckets[shard_id])
            sub_instance = MarketInstance(
                drivers=drivers,
                tasks=tuple(instance.tasks[i] for i in task_indices),
                cost_model=instance.cost_model,
            )
            shards.append(
                MarketShard(
                    spec=ShardSpec(shard_id=shard_id, boxes=boxes),
                    instance=sub_instance,
                    global_task_indices=tuple(task_indices),
                    global_driver_ids=tuple(d.driver_id for d in drivers),
                )
            )
        return PartitionPlan(shards=tuple(shards))


def split_box_group(
    group: Sequence[BoundingBox],
) -> Tuple[Tuple[BoundingBox, ...], Tuple[BoundingBox, ...]]:
    """The two box groups a split of ``group`` would produce.

    A single-box shard splits its box in half along the longer axis; a
    multi-box shard (a previous merge) splits its box list in half.
    """
    group = tuple(group)
    if len(group) > 1:
        half = len(group) // 2
        return group[:half], group[half:]
    box = group[0]
    if box.height_km() >= box.width_km():
        first, second = box.split(2, 1)
    else:
        first, second = box.split(1, 2)
    return (first,), (second,)


# ----------------------------------------------------------------------
# skew-aware split/merge machinery
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class RebalancePolicy:
    """Skew-aware shard split/merge knobs of a live stream.

    The stream consults the policy every ``check_every_batches`` arrival
    batches, and the decision (:func:`plan_rebalance_action`) is: if the
    hottest shard holds at least ``hot_factor`` times the mean task load
    (and at least ``min_split_tasks`` tasks, and fewer than ``max_shards``
    shards exist), split it — one box shard into its two halves along the
    longer axis, a multi-box shard into its two half lists.  Otherwise, if
    the two coldest shards are both under ``cold_factor`` times the mean,
    merge them into one multi-box shard.  Splitting lifts the
    ``total/slowest`` critical-path cap toward the shard count; merging
    stops starving workers on empty districts.

    Rebalancing is deterministic but *replaces* the fixed partition, so it
    forfeits parity with the original grid; instead the contract is that
    the rebalanced stream is bit-identical to a from-start stream over the
    final regions (the stream's ``DistributedResult.regions``).
    """

    check_every_batches: int = 4
    hot_factor: float = 2.0
    cold_factor: float = 0.2
    min_split_tasks: int = 64
    max_shards: Optional[int] = None

    def __post_init__(self) -> None:
        if self.check_every_batches < 1:
            raise ValueError("check_every_batches must be >= 1")
        if not (math.isfinite(self.hot_factor) and self.hot_factor > 1.0):
            raise ValueError("hot_factor must be finite and > 1")
        if not (math.isfinite(self.cold_factor) and self.cold_factor >= 0.0):
            raise ValueError("cold_factor must be finite and >= 0")
        if self.min_split_tasks < 0:
            raise ValueError("min_split_tasks must be >= 0")
        if self.max_shards is not None and self.max_shards < 1:
            raise ValueError("max_shards must be >= 1 (or None for no cap)")


def plan_rebalance_action(
    counts: Sequence[float],
    groups: Sequence[Tuple[BoundingBox, ...]],
    policy: RebalancePolicy,
) -> Optional[Tuple[Tuple[int, ...], List[Tuple[BoundingBox, ...]]]]:
    """The next split/merge of the shard box groups ``groups`` (aligned
    with their task loads ``counts``), or ``None`` when the rule is quiet.

    Returns ``(removed, added)``: the positions the action retires, in
    ascending order, and the box groups that replace them — to be appended
    after the surviving shards, in this order.  A split retires the hottest
    shard (ties to the lowest position) for its two halves
    (:func:`split_box_group`); a merge retires the two coldest shards and
    pools their boxes coldest first (ties to the lower position).  The
    result is purely a function of its arguments, which is what makes a
    rebalanced stream reproducible from the start.
    """
    total = sum(counts)
    if total == 0 or len(counts) == 0:
        return None
    mean = total / len(counts)
    hot = max(range(len(counts)), key=lambda i: (counts[i], -i))
    can_split = policy.max_shards is None or len(counts) < policy.max_shards
    if (
        can_split
        and counts[hot] >= policy.hot_factor * mean
        and counts[hot] >= policy.min_split_tasks
    ):
        return (hot,), list(split_box_group(groups[hot]))
    if len(counts) < 2:
        return None
    cold = sorted(range(len(counts)), key=lambda i: (counts[i], i))[:2]
    if all(counts[i] <= policy.cold_factor * mean for i in cold):
        merged = tuple(box for position in cold for box in groups[position])
        return tuple(sorted(cold)), [merged]
    return None
