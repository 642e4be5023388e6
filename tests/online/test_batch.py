"""Tests for the batched (rolling-horizon) dispatcher."""

import pytest

from repro.market import StreamingMarketInstance
from repro.offline import exact_optimum, greedy_assignment
from repro.online import (
    BatchConfig,
    BatchedSimulator,
    MaxMarginDispatcher,
    run_batched,
    run_batched_stream,
    run_online,
    window_batches,
)

from ..conftest import build_chain_instance, build_random_instance
from ..taskmap_oracle import is_feasible_path
from .conftest import index_off


@pytest.fixture(scope="module")
def chain():
    return build_chain_instance()


@pytest.fixture(scope="module")
def random_instance():
    return build_random_instance(task_count=40, driver_count=10, seed=81)


class TestBatchConfig:
    def test_invalid_window(self):
        with pytest.raises(ValueError):
            BatchConfig(window_s=0.0)

    def test_defaults(self):
        cfg = BatchConfig()
        assert cfg.window_s == 60.0


class TestBatchedOnChainInstance:
    def test_serves_both_tasks(self, chain):
        outcome = run_batched(chain, window_s=120.0)
        assert outcome.plan_for("chainer").task_indices == (0, 1)
        assert outcome.total_value == pytest.approx(10.0, rel=0.02)

    def test_overly_wide_window_misses_deadlines(self, chain):
        # Batching is a latency/quality trade-off: with a window far longer
        # than the publish lead, the batch is dispatched only after the pickup
        # deadlines have passed and the orders are lost.
        outcome = run_batched(chain, window_s=10_000.0)
        assert outcome.served_count == 0
        assert set(outcome.rejected_tasks) == {0, 1}

    def test_window_matched_to_publish_lead_serves_everything(self, chain):
        # Publish lead in the chain instance is 600 s; a 300 s window keeps
        # every dispatch ahead of its pickup deadline.
        outcome = run_batched(chain, window_s=300.0)
        assert outcome.served_count == 2


class TestBatchedInvariants:
    @pytest.mark.parametrize("window_s", [30.0, 120.0, 600.0])
    def test_no_task_served_twice(self, random_instance, window_s):
        outcome = run_batched(random_instance, window_s=window_s)
        served = [m for r in outcome.plans for m in r.task_indices]
        assert len(served) == len(set(served))

    def test_served_plus_rejected_cover_all_tasks(self, random_instance):
        outcome = run_batched(random_instance, window_s=60.0)
        assert outcome.served_count + len(outcome.rejected_tasks) == random_instance.task_count

    def test_each_chain_is_a_feasible_offline_path(self, random_instance):
        outcome = run_batched(random_instance, window_s=60.0)
        for plan in outcome.plans:
            task_map = random_instance.task_map(plan.driver_id)
            assert is_feasible_path(task_map, plan.task_indices)

    def test_bounded_by_exact_optimum(self):
        instance = build_random_instance(task_count=18, driver_count=5, seed=83)
        optimum = exact_optimum(instance).optimum
        outcome = run_batched(instance, window_s=90.0)
        assert outcome.total_value <= optimum + 1e-6

    def test_drivers_never_lose_money(self, random_instance):
        outcome = run_batched(random_instance, window_s=60.0)
        for plan in outcome.plans:
            if plan.task_indices:
                assert plan.profit > -1e-6

    def test_deterministic(self, random_instance):
        a = run_batched(random_instance, window_s=60.0)
        b = run_batched(random_instance, window_s=60.0)
        assert a.assignment() == b.assignment()


class TestWindowSpatialPrefilter:
    """The union-of-reach grid query is superset-safe: it must never change
    a single assignment or profit, only the matrix width."""

    @pytest.mark.parametrize("window_s", [30.0, 120.0])
    def test_index_on_off_outcomes_identical(self, window_s):
        # Enough drivers to clear the kernel's min-fleet bar.
        instance = build_random_instance(task_count=80, driver_count=30, seed=21)
        indexed = BatchedSimulator(instance, BatchConfig(window_s=window_s))
        with_index = indexed.run()
        assert indexed._kernel.uses_spatial_index
        with index_off():
            exhaustive = BatchedSimulator(instance, BatchConfig(window_s=window_s))
            without = exhaustive.run()
        assert not exhaustive._kernel.uses_spatial_index
        assert with_index.assignment() == without.assignment()
        assert [r.profit for r in with_index.plans] == [r.profit for r in without.plans]
        assert with_index.rejected_tasks == without.rejected_tasks

    def test_kernel_grid_is_engaged(self):
        instance = build_random_instance(task_count=40, driver_count=30, seed=21)
        simulator = BatchedSimulator(instance, BatchConfig())
        simulator.run()
        assert simulator._kernel.uses_spatial_index


class TestStreamingConsumption:
    """run_stream over a StreamingMarketInstance reproduces run() exactly
    when fed the same windows (task indices may differ, task ids may not)."""

    @staticmethod
    def by_task_ids(outcome, instance):
        return {
            plan.driver_id: tuple(
                instance.tasks[m].task_id for m in plan.task_indices
            )
            for plan in outcome.plans
            if plan.task_indices
        }

    @pytest.mark.parametrize("window_s", [30.0, 90.0])
    def test_stream_matches_replay(self, random_instance, window_s):
        replay = BatchedSimulator(random_instance, BatchConfig(window_s=window_s)).run()
        stream_instance = StreamingMarketInstance(
            random_instance.drivers, random_instance.cost_model
        )
        outcome = run_batched_stream(
            stream_instance,
            window_batches(random_instance.tasks, window_s),
            window_s=window_s,
        )
        assert self.by_task_ids(outcome, stream_instance) == self.by_task_ids(
            replay, random_instance
        )
        assert outcome.total_value == replay.total_value
        rejected_stream = {stream_instance.tasks[m].task_id for m in outcome.rejected_tasks}
        rejected_replay = {random_instance.tasks[m].task_id for m in replay.rejected_tasks}
        assert rejected_stream == rejected_replay

    def test_one_task_per_batch_matches_replay(self):
        """Watermark windowing: parity must not depend on window-aligned
        batching — the natural live feed is one order per batch."""
        instance = build_random_instance(task_count=60, driver_count=3, seed=10)
        replay = BatchedSimulator(instance, BatchConfig(window_s=300.0)).run()
        ordered = sorted(instance.tasks, key=lambda t: t.publish_ts)
        stream_instance = StreamingMarketInstance(instance.drivers, instance.cost_model)
        outcome = run_batched_stream(
            stream_instance, [[task] for task in ordered], window_s=300.0
        )
        assert self.by_task_ids(outcome, stream_instance) == self.by_task_ids(
            replay, instance
        )
        assert outcome.total_value == replay.total_value

    def test_out_of_order_stream_rejected(self, random_instance):
        ordered = sorted(random_instance.tasks, key=lambda t: t.publish_ts)
        stream_instance = StreamingMarketInstance(
            random_instance.drivers, random_instance.cost_model
        )
        simulator = BatchedSimulator(stream_instance, BatchConfig(window_s=60.0))
        with pytest.raises(ValueError):
            # Feed the latest order first, then one from a much earlier window.
            simulator.run_stream([[ordered[-1]], [ordered[0]]])

    def test_refused_batch_leaves_the_stream_untouched(self, random_instance):
        """An out-of-order batch is refused *before* it is appended: the
        market, the kernel and the open window are as they were, and the
        finished stream equals the one that never saw the bad batch."""
        from dataclasses import replace

        from repro.online.batch import stream_schedule

        batches = stream_schedule(random_instance.tasks, 60.0)
        half = len(batches) // 2
        stale = next(t for t in batches[0] if t.is_publishable)

        def stream(poison):
            instance = StreamingMarketInstance(
                random_instance.drivers, random_instance.cost_model
            )
            simulator = BatchedSimulator(instance, BatchConfig(window_s=60.0))
            simulator.stream_begin()
            for batch in batches[:half]:
                simulator.stream_feed(batch)
            if poison:
                before = (instance.task_count, list(simulator._stream_open_arrivals))
                with pytest.raises(ValueError, match="publish-ordered"):
                    simulator.stream_feed([replace(stale, task_id="stale-copy")])
                assert (instance.task_count, simulator._stream_open_arrivals) == before
                assert simulator._kernel.extend_tasks() == 0
            for batch in batches[half:]:
                simulator.stream_feed(batch)
            return simulator.stream_end(), instance

        clean, clean_instance = stream(poison=False)
        outcome, instance = stream(poison=True)
        assert instance.task_count == random_instance.task_count
        assert self.by_task_ids(outcome, instance) == self.by_task_ids(clean, clean_instance)
        assert outcome.rejected_tasks == clean.rejected_tasks
        assert outcome.total_value == clean.total_value
        publishable = sum(1 for t in instance.tasks if t.is_publishable)
        assert outcome.served_count + len(outcome.rejected_tasks) == publishable

    def test_run_stream_requires_streaming_instance(self, random_instance):
        simulator = BatchedSimulator(random_instance)
        with pytest.raises(TypeError):
            simulator.run_stream([list(random_instance.tasks)])

    def test_window_batches_grouping(self, random_instance):
        batches = window_batches(random_instance.tasks, 60.0)
        flattened = [t for batch in batches for t in batch]
        assert len(flattened) == sum(1 for t in random_instance.tasks if t.is_publishable)
        publishes = [t.publish_ts for t in flattened]
        assert publishes == sorted(publishes)
        with pytest.raises(ValueError):
            window_batches(random_instance.tasks, 0.0)

    def test_stream_schedule_carries_every_task(self, random_instance):
        from repro.online.batch import stream_schedule

        batches = stream_schedule(random_instance.tasks, 60.0)
        flattened = [t for batch in batches for t in batch]
        assert len(flattened) == random_instance.task_count
        publishes = [t.publish_ts for t in flattened]
        assert publishes == sorted(publishes)
        # The publishable subsequence is exactly the dispatch schedule.
        publishable = [t for t in flattened if t.is_publishable]
        assert publishable == [
            t for batch in window_batches(random_instance.tasks, 60.0) for t in batch
        ]
        with pytest.raises(ValueError):
            stream_schedule(random_instance.tasks, 0.0)

    def test_incremental_api_requires_stream_begin(self, random_instance):
        stream_instance = StreamingMarketInstance(
            random_instance.drivers, random_instance.cost_model
        )
        simulator = BatchedSimulator(stream_instance, BatchConfig(window_s=60.0))
        with pytest.raises(RuntimeError):
            simulator.stream_feed(list(random_instance.tasks))
        with pytest.raises(RuntimeError):
            simulator.stream_end()
        simulator.stream_begin()
        simulator.stream_feed(sorted(random_instance.tasks, key=lambda t: t.publish_ts))
        simulator.stream_end()
        with pytest.raises(RuntimeError):  # stream is over
            simulator.stream_feed([])


class TestBatchedVsPerOrder:
    def test_batching_competitive_with_max_margin(self, random_instance):
        """Pooling a window of orders should not be dramatically worse than
        the per-order maxMargin rule, and usually helps."""
        per_order = run_online(random_instance, MaxMarginDispatcher())
        batched = run_batched(random_instance, window_s=120.0)
        assert batched.total_value >= 0.6 * per_order.total_value

    def test_tiny_windows_degenerate_to_per_order_behaviour(self, random_instance):
        tiny = run_batched(random_instance, window_s=1.0)
        assert tiny.served_count > 0
