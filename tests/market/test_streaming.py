"""Equivalence tests for the streaming market instance.

The contract of :class:`~repro.market.streaming.StreamingMarketInstance` is
strict: after any sequence of ``append_tasks`` batches and whenever it is
read, the task network and per-driver task maps it hands out must be
**bit-identical** (``np.array_equal``, not approx) to a from-scratch
:class:`~repro.market.instance.MarketInstance` over the same drivers and
tasks, and every solver must produce the same solution on either.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.market import MarketCostModel, MarketInstance, StreamingMarketInstance, taskmap
from repro.market.taskmap import COLUMN_NAMES
from repro.offline import greedy_assignment
from repro.online import (
    BatchConfig,
    BatchedSimulator,
    MaxMarginDispatcher,
    run_online,
    window_batches,
)

from ..conftest import build_random_instance

NETWORK_ARRAYS = (
    "durations_s",
    "service_costs",
    "prices",
    "valuations",
    "servable",
    "arc_ptr",
    "arc_head",
    "arc_cost",
    "topo_order",
)
MAP_ARRAYS = (
    "entry_ok",
    "exit_ok",
    "source_leg_times",
    "source_leg_costs",
    "sink_leg_times",
    "sink_leg_costs",
)


def assert_equivalent(stream: StreamingMarketInstance, reference: MarketInstance) -> None:
    """Every derived structure of ``stream`` matches ``reference`` bit for bit."""
    for name in COLUMN_NAMES:
        assert np.array_equal(
            getattr(stream.task_columns, name), getattr(reference.task_columns, name)
        ), name
    net_a, net_b = stream.task_network, reference.task_network
    assert net_a.tasks == net_b.tasks
    for name in NETWORK_ARRAYS:
        assert np.array_equal(getattr(net_a, name), getattr(net_b, name)), name
    for m in range(net_a.task_count):
        assert np.array_equal(net_a.successors[m], net_b.successors[m])
        assert np.array_equal(net_a.leg_costs[m], net_b.leg_costs[m])
    # The arcs' leg times, from each side's cost model over its own columns.
    tails = np.repeat(np.arange(net_a.task_count), np.diff(net_a.arc_ptr))
    times_a, _ = stream.cost_model.pairwise_leg_matrix(
        net_a.columns.destinations, net_a.columns.sources
    )
    times_b, _ = reference.cost_model.pairwise_leg_matrix(
        net_b.columns.destinations, net_b.columns.sources
    )
    assert np.array_equal(times_a[tails, net_a.arc_head], times_b[tails, net_b.arc_head])
    reference_maps = reference.task_maps
    assert set(stream.task_maps) == set(reference_maps)
    for driver_id, incremental in stream.task_maps.items():
        rebuilt = reference_maps[driver_id]
        for name in MAP_ARRAYS:
            assert np.array_equal(getattr(incremental, name), getattr(rebuilt, name)), (
                driver_id,
                name,
            )
        assert incremental.direct_leg == rebuilt.direct_leg


@pytest.fixture(scope="module")
def base_instance():
    return build_random_instance(task_count=60, driver_count=12, seed=29)


class TestIncrementalEquivalence:
    def test_batched_appends_match_rebuild(self, base_instance):
        stream = StreamingMarketInstance(base_instance.drivers, base_instance.cost_model)
        tasks = list(base_instance.tasks)
        for lo, hi in [(0, 10), (10, 11), (11, 35), (35, 35), (35, 60)]:
            stream.append_tasks(tasks[lo:hi])
        assert_equivalent(stream, stream.rebuild())

    def test_single_shot_matches_plain_instance(self, base_instance):
        stream = StreamingMarketInstance.from_instance(base_instance)
        assert_equivalent(stream, base_instance)

    def test_greedy_solution_parity(self, base_instance):
        stream = StreamingMarketInstance(base_instance.drivers, base_instance.cost_model)
        tasks = list(base_instance.tasks)
        for lo in range(0, len(tasks), 13):
            stream.append_tasks(tasks[lo : lo + 13])
        incremental = greedy_assignment(stream.snapshot())
        rebuilt = greedy_assignment(stream.rebuild())
        assert incremental.assignment() == rebuilt.assignment()
        assert [p.profit for p in incremental.plans] == [p.profit for p in rebuilt.plans]

    def test_online_simulator_consumes_streaming_instance(self, base_instance):
        stream = StreamingMarketInstance.from_instance(base_instance)
        streamed = run_online(stream, MaxMarginDispatcher())
        static = run_online(base_instance, MaxMarginDispatcher())
        assert streamed.assignment() == static.assignment()
        assert [r.profit for r in streamed.plans] == [r.profit for r in static.plans]

    @settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(cuts=st.lists(st.integers(min_value=0, max_value=40), max_size=4))
    def test_any_batch_split_is_equivalent(self, cuts):
        instance = build_random_instance(task_count=40, driver_count=8, seed=17)
        tasks = list(instance.tasks)
        boundaries = sorted({0, len(tasks), *cuts})
        stream = StreamingMarketInstance(instance.drivers, instance.cost_model)
        for lo, hi in zip(boundaries[:-1], boundaries[1:]):
            stream.append_tasks(tasks[lo:hi])
        assert_equivalent(stream, instance)

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        schedule=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=9),
                st.sampled_from(["nothing", "task_maps", "successors", "snapshot"]),
            ),
            max_size=8,
        )
    )
    def test_any_read_schedule_is_equivalent(self, schedule):
        """The stale-cache guard: appends interleaved with reads at
        arbitrary points match a rebuild at every read and at the end."""
        instance = build_random_instance(task_count=40, driver_count=8, seed=17)
        tasks = list(instance.tasks)
        stream = StreamingMarketInstance(instance.drivers, instance.cost_model)
        cursor = 0
        for size, read in [*schedule, (len(tasks), "nothing")]:
            stream.append_tasks(tasks[cursor : cursor + size])
            cursor = min(cursor + size, len(tasks))
            if read == "nothing":
                continue
            if read == "task_maps":
                assert all(m.task_count == cursor for m in stream.task_maps.values())
            elif read == "successors":
                assert len(stream.task_network.successors) == cursor
            else:
                assert stream.snapshot().task_count == cursor
            assert_equivalent(stream, stream.rebuild())
        assert_equivalent(stream, instance)


class CountingCostModel(MarketCostModel):
    """Records the shape of every ``pairwise_leg_matrix`` call."""

    def __init__(self, travel_model=None):
        super().__init__(travel_model)
        self.blocks = []

    def pairwise_leg_matrix(self, origins, destinations):
        self.blocks.append((len(origins), len(destinations)))
        return super().pairwise_leg_matrix(origins, destinations)


class TestMaterialisedOnRead:
    def test_dispatch_stream_builds_no_leg_block(self):
        """A whole ``run_stream`` reads columns only; the first ``task_maps``
        read afterwards is one build over every task."""
        instance = build_random_instance(task_count=120, driver_count=10, seed=41)
        cost_model = CountingCostModel(instance.cost_model.travel_model)
        batches = window_batches(instance.tasks, 30.0)
        assert len(batches) >= 50
        stream = StreamingMarketInstance(instance.drivers, cost_model)
        outcome = BatchedSimulator(stream, BatchConfig(window_s=30.0)).run_stream(batches)
        assert outcome.served_count > 0
        assert cost_model.blocks == []

        count, fleet = stream.task_count, stream.driver_count
        assert len(stream.task_maps) == fleet
        # all -> all for the network, source and sink legs for the one fleet chunk.
        assert cost_model.blocks == [(count, count), (fleet, count), (count, fleet)]
        assert stream.snapshot().task_network is stream.task_network
        assert len(cost_model.blocks) == 3  # nothing appended: reads are free

    @pytest.mark.parametrize("run", [
        lambda instance: run_online(instance, MaxMarginDispatcher()),
        lambda instance: BatchedSimulator(instance, BatchConfig(window_s=60.0)).run(),
    ])
    def test_online_runs_leave_a_plain_instance_without_a_network(self, run):
        instance = build_random_instance(task_count=30, driver_count=6, seed=13)
        outcome = run(instance)
        assert outcome.total_revenue >= 0.0
        assert "task_columns" in instance.__dict__
        assert "task_network" not in instance.__dict__
        assert "task_maps" not in instance.__dict__

    def test_column_views_survive_a_capacity_doubling(self):
        instance = build_random_instance(task_count=201, driver_count=3, seed=23)
        tasks = list(instance.tasks)
        stream = StreamingMarketInstance(instance.drivers, instance.cost_model)
        stream.append_tasks(tasks[:1])
        early = stream.task_columns
        kept = {name: getattr(early, name).copy() for name in COLUMN_NAMES}
        stream.append_tasks(tasks[1:])
        assert len(stream.task_columns.servable) == 201
        for name in COLUMN_NAMES:
            assert np.array_equal(getattr(early, name), kept[name]), name
            assert np.array_equal(getattr(stream.task_columns, name)[:1], kept[name]), name
        assert_equivalent(stream, instance)


class TestStreamingApi:
    def test_read_api_mirrors_market_instance(self, base_instance):
        stream = StreamingMarketInstance.from_instance(base_instance)
        assert stream.drivers == base_instance.drivers
        assert stream.tasks == base_instance.tasks
        assert stream.task_count == base_instance.task_count
        assert stream.driver_count == base_instance.driver_count
        assert stream.task_index(base_instance.tasks[3].task_id) == 3
        with pytest.raises(KeyError):
            stream.task_map("nobody")
        with pytest.raises(KeyError):
            stream.task_index("no-such-task")

    def test_snapshot_shares_derived_state(self, base_instance):
        stream = StreamingMarketInstance.from_instance(base_instance)
        snapshot = stream.snapshot()
        assert snapshot.task_network is stream.task_network
        assert snapshot.task_maps is stream.task_maps

    def test_empty_append_is_a_noop(self, base_instance):
        stream = StreamingMarketInstance.from_instance(base_instance)
        before = stream.task_network
        assert stream.append_tasks(()) == ()
        assert stream.task_network is before

    def test_duplicate_ids_rejected(self, base_instance):
        stream = StreamingMarketInstance.from_instance(base_instance)
        with pytest.raises(ValueError):
            stream.append_tasks([base_instance.tasks[0]])
        with pytest.raises(ValueError):
            StreamingMarketInstance(
                base_instance.drivers,
                base_instance.cost_model,
                tasks=(base_instance.tasks[0], base_instance.tasks[0]),
            )

    def test_duplicate_driver_ids_rejected(self, base_instance):
        drivers = (base_instance.drivers[0], base_instance.drivers[0])
        with pytest.raises(ValueError):
            StreamingMarketInstance(drivers, base_instance.cost_model)


class TestOneBuilder:
    """Arcs and maps come from one cached :class:`MarketInstance` build."""

    def test_snapshot_is_cached_between_appends(self, base_instance):
        stream = StreamingMarketInstance.from_instance(base_instance)
        snapshot = stream.snapshot()
        assert stream.snapshot() is snapshot
        assert stream.task_network is snapshot.task_network
        assert stream.task_maps is snapshot.task_maps
        driver_id = base_instance.drivers[0].driver_id
        assert stream.task_map(driver_id) is snapshot.task_map(driver_id)

    def test_only_a_nonempty_append_drops_the_snapshot(self, base_instance):
        tasks = list(base_instance.tasks)
        stream = StreamingMarketInstance(
            base_instance.drivers, base_instance.cost_model, tasks[:30]
        )
        before = stream.snapshot()
        stream.append_tasks(())
        assert stream.snapshot() is before
        stream.append_tasks(tasks[30:])
        after = stream.snapshot()
        assert after is not before
        assert after.task_count == len(tasks)
        assert before.task_count == 30

    def test_earlier_snapshot_keeps_its_state(self):
        """Later appends, a capacity doubling among them, leave an earlier
        snapshot's tasks and arrays as they were."""
        instance = build_random_instance(task_count=150, driver_count=5, seed=31)
        tasks = list(instance.tasks)
        stream = StreamingMarketInstance(instance.drivers, instance.cost_model, tasks[:10])
        early = stream.snapshot()
        early.task_maps
        stream.append_tasks(tasks[10:70])
        stream.task_maps
        stream.append_tasks(tasks[70:])
        assert early.task_count == 10
        assert_equivalent(early, instance.with_tasks(tasks[:10]))
        assert_equivalent(stream, instance)

    def test_one_builder_remains(self):
        """One fleet builder for the maps, no point-leg helpers, and a
        stream whose only surface is the read API plus appends."""
        assert sorted(name for name in vars(taskmap) if name.startswith("build_")) == [
            "build_driver_task_maps",
            "build_task_columns",
            "build_task_network",
        ]
        assert [name for name in vars(MarketCostModel) if name.startswith("legs_")] == []
        assert {name for name in vars(StreamingMarketInstance) if not name.startswith("__")} == {
            "from_instance",
            "drivers",
            "tasks",
            "cost_model",
            "driver_count",
            "task_count",
            "task_columns",
            "task_network",
            "task_maps",
            "task_map",
            "task_index",
            "snapshot",
            "rebuild",
            "append_tasks",
            "_grow",
        }
