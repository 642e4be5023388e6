"""A stateful test of one live stream on the serial pool.

Hypothesis drives a :class:`DistributedStreamSession` through arbitrary
interleavings of publish-ordered appends, forced rebalance checks,
``finish`` and ``close``.  After every step no order is lost or duplicated
across shards — the guarantee ``_dispatch`` (live appends) and ``_replay``
(re-feeding a rebalanced shard's history) must keep between them.  After
``finish`` every publishable order is served or rejected, never both; after
``close`` no worker session is left resident.
"""

from dataclasses import replace

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.distributed import DistributedCoordinator, RebalancePolicy, SpatialPartitioner
from repro.distributed.pool import _pool_session_count
from repro.geo import PORTO
from repro.online.batch import BatchConfig

from ..conftest import build_random_instance

INSTANCE = build_random_instance(task_count=48, driver_count=10, seed=29)
#: The arrival order: a batch is the next slice, so every batch is
#: publish-ordered and none reaches behind the stream's watermark.  Every
#: fifth order is priced above its customer's willingness to pay.
ORDERS = tuple(
    task if position % 5 else replace(task, wtp=task.price / 2)
    for position, task in enumerate(
        sorted(INSTANCE.tasks, key=lambda task: task.publish_ts)
    )
)
#: Every check may act, and on this day both splits and merges occur.
POLICY = RebalancePolicy(
    check_every_batches=1, hot_factor=1.5, cold_factor=0.5, min_split_tasks=8, max_shards=8
)


class StreamSessionMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.coordinator = DistributedCoordinator(SpatialPartitioner(PORTO, 2, 2))
        self.session = self.coordinator.open_stream(
            INSTANCE.drivers,
            INSTANCE.cost_model,
            config=BatchConfig(window_s=600.0),
            rebalance=POLICY,
        )
        self.submitted = 0

    @precondition(lambda self: not self.session.closed and self.submitted < len(ORDERS))
    @rule(size=st.integers(1, 8))
    def append(self, size):
        batch = ORDERS[self.submitted : self.submitted + size]
        self.session.append_batch(batch)
        self.submitted += len(batch)

    @precondition(lambda self: not self.session.closed)
    @rule()
    def check_rebalance(self):
        self.session._maybe_rebalance()

    @precondition(lambda self: not self.session.closed)
    @rule()
    def finish(self):
        result = self.session.finish()
        served = {m for path in result.solution.assignment().values() for m in path}
        rejected = set(result.rejected_tasks)
        publishable = {g for g in range(self.submitted) if ORDERS[g].is_publishable}
        assert not served & rejected
        assert served <= publishable
        assert publishable <= served | rejected

    @rule()
    def close(self):
        self.session.close()
        assert _pool_session_count() == 0

    @invariant()
    def every_order_has_exactly_one_shard(self):
        held = [g for shard in self.session._shards for g in shard.global_indices]
        assert sum(self.session.shard_task_counts) == self.submitted
        assert sorted(held) == list(range(self.submitted))

    def teardown(self) -> None:
        self.session.close()
        self.coordinator.close()


TestStreamSessionMachine = StreamSessionMachine.TestCase
TestStreamSessionMachine.settings = settings(
    max_examples=30,
    stateful_step_count=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
