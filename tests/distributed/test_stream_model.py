"""Generated schedules over the live stream session.

Hypothesis draws a grid, an optional skew-aware :class:`RebalancePolicy`
tuned so splits and merges fire, a cut of the publish-ordered order stream
into random-size slices, and whether the stream ends in ``finish`` or an
abandoning ``close`` (possibly before every slice is appended).  After every
step the session's bookkeeping must add up; a finished stream must account
for every publishable order exactly once and be bit-identical to a
from-start stream over its final regions (contract 10) fed the same slices.

The last test pins :meth:`ZonePartition.split`, the routing step every
offline and streamed shard assignment goes through.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributed import (
    DistributedCoordinator,
    PersistentWorkerPool,
    RebalancePolicy,
    SpatialPartitioner,
    ZonePartition,
)
from repro.distributed.partition import split_box_group
from repro.geo import PORTO, GeoPoint
from repro.online.batch import BatchConfig

from ..conftest import build_random_instance, stream_from_start

CONFIG = BatchConfig(window_s=600.0)


@pytest.fixture(scope="module")
def instance():
    return build_random_instance(task_count=40, driver_count=10, seed=53)


@pytest.fixture(scope="module")
def process_pool():
    with PersistentWorkerPool("process", 2) as pool:
        yield pool


policies = st.none() | st.builds(
    RebalancePolicy,
    check_every_batches=st.integers(1, 3),
    hot_factor=st.sampled_from((1.2, 1.5, 2.0)),
    cold_factor=st.sampled_from((0.3, 0.9)),
    min_split_tasks=st.integers(1, 6),
    # A shard cap stops the splits, which lets the merges fire.
    max_shards=st.sampled_from((None, 2, 3, 4)),
)


#: ``(rows, cols, policy, slice sizes)``: the slices cut the publish-ordered
#: orders front to back, stopping early when the sizes run out.
schedules = st.tuples(
    st.integers(1, 2),
    st.integers(1, 3),
    policies,
    st.lists(st.integers(1, 8), min_size=2, max_size=10),
)


def publish_ordered(instance):
    return sorted(instance.tasks, key=lambda task: task.publish_ts)


def cut(tasks, sizes):
    slices, start = [], 0
    for size in sizes:
        if start < len(tasks):
            slices.append(tasks[start : start + size])
            start += size
    return slices


def fingerprint(result):
    return (
        result.solution.assignment(),
        tuple((p.driver_id, p.task_indices, p.profit) for p in result.solution.plans),
        result.rejected_tasks,
        result.report.total_value,
        result.report.served_count,
        result.report.per_shard_task_counts,
    )


def run_schedule(instance, schedule, ending, pool=None):
    rows, cols, policy, sizes = schedule
    slices = cut(publish_ordered(instance), sizes)
    appended = []
    with DistributedCoordinator(
        SpatialPartitioner(PORTO, rows, cols), executor="serial"
    ) as coordinator:
        session = coordinator.open_stream(
            instance.drivers,
            instance.cost_model,
            config=CONFIG,
            rebalance=policy,
            pool=pool,
        )
        with session:
            for batch in slices:
                session.append_batch(batch)
                appended.extend(batch)
                assert sum(session.shard_task_counts) == len(appended)
                assert len(session.shard_regions) == len(session.shard_task_counts)
            result = session.finish() if ending == "finish" else session.close()
            assert session.closed
            with pytest.raises(RuntimeError):
                session.append_batch(slices[0])
            with pytest.raises(RuntimeError):
                session.finish()
    if ending == "close":
        return

    assert [t.task_id for t in result.solution.instance.tasks] == [
        t.task_id for t in appended
    ]
    served = {m for path in result.solution.assignment().values() for m in path}
    rejected = set(result.rejected_tasks)
    assert not served & rejected
    assert served | rejected == {
        g for g, task in enumerate(appended) if task.is_publishable
    }
    assert sum(result.report.per_shard_task_counts) == len(appended)
    reference = stream_from_start(instance, PORTO, result.regions, slices, CONFIG)
    assert fingerprint(result) == fingerprint(reference)


@pytest.mark.parametrize("ending", ["finish", "close"])
@settings(max_examples=80)
@given(schedule=schedules)
def test_serial_stream_schedule(instance, ending, schedule):
    run_schedule(instance, schedule, ending)


@pytest.mark.parametrize("ending", ["finish", "close"])
@settings(max_examples=10)
@given(schedule=schedules)
def test_process_pool_stream_schedule(instance, process_pool, ending, schedule):
    run_schedule(instance, schedule, ending, pool=process_pool)


@st.composite
def zone_partitions(draw):
    """A grid over Porto, rewritten by a few random splits and merges."""
    zones = ZonePartition.from_grid(PORTO, draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    groups = list(zones.box_groups)
    for _ in range(draw(st.integers(0, 3))):
        if len(groups) > 1 and draw(st.booleans()):
            pair = draw(st.permutations(range(len(groups))))[:2]
            added = [tuple(box for p in pair for box in groups[p])]
        else:
            pair = [draw(st.integers(0, len(groups) - 1))]
            added = list(split_box_group(groups[pair[0]]))
        groups = [g for p, g in enumerate(groups) if p not in pair] + added
    return ZonePartition(PORTO, groups)


# Points a little beyond Porto too, so clamping into the region is exercised.
points = st.builds(
    GeoPoint,
    st.floats(PORTO.south - 0.05, PORTO.north + 0.05),
    st.floats(PORTO.west - 0.05, PORTO.east + 0.05),
)


@given(zones=zone_partitions(), batch=st.lists(points, max_size=40))
def test_split_buckets_route(zones, batch):
    buckets = zones.split(batch)
    assert len(buckets) == zones.shard_count
    assert sorted(i for bucket in buckets for i in bucket) == list(range(len(batch)))
    assert all(bucket == sorted(bucket) for bucket in buckets)
    owners = zones.route(batch)
    for shard, bucket in enumerate(buckets):
        assert all(owners[i] == shard for i in bucket)
    if not batch:
        assert buckets == [[] for _ in range(zones.shard_count)]
