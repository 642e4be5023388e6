"""The live order stream over a persistent shard pool.

:meth:`DistributedCoordinator.solve_stream` (and the incremental
:meth:`DistributedCoordinator.open_stream` / ``append_batch`` / ``finish``
path) serves a *live* order stream instead of an offline re-solve: arrival
batches are routed to per-shard
:class:`~repro.market.streaming.StreamingMarketInstance` sessions kept alive
inside a :class:`~repro.distributed.pool.PersistentWorkerPool`, each shard
dispatching its windows with the batched Hungarian simulator while the
coordinator is already routing the next batch.  A shard's batch goes to the
pool as its ``Task`` objects, which only a process slot gets flattened (the
new task columns), and the pool outlives individual streams, so process
startup is amortised across re-solves and ablation sweeps.

Drivers and orders are routed by the same
:meth:`~repro.distributed.partition.ZonePartition.split` the offline
partition uses, and one dispatch step (:meth:`DistributedStreamSession._dispatch`)
ships every order to its shard — whether it arrives live or is replayed
into a freshly rebalanced shard.

**Parity contract (stream == replay):** every worker session runs the exact
``BatchedSimulator.run_stream`` code path on the caller's tasks or their
value-identical delta round trip, so the merged streamed solution is
bit-identical to a serial per-shard ``run_stream`` replay of the same batch
schedule — under either executor policy.  The optional skew-aware rebalance (split the hottest shard, merge
cold ones between windows) deliberately trades that fixed partition for load
balance; its own contract is determinism: a rebalanced stream is bit-identical
to a from-start stream over the final (post-rebalance) regions.
"""

from __future__ import annotations

import logging
from bisect import bisect_left
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.objectives import Objective
from ..core.solution import DriverPlan, MarketSolution
from ..geo import BoundingBox, GeoPoint
from ..market.cost import MarketCostModel
from ..market.driver import Driver
from ..market.instance import MarketInstance
from ..market.task import Task
from ..obs import trace as obs_trace
from ..online.batch import BatchConfig
from .messages import ShardStreamResult, StreamReport, _FanOutRun
from .partition import RebalancePolicy, ZonePartition, plan_rebalance_action
from .pool import (
    PersistentWorkerPool,
    WorkerPoolBrokenError,
    _pool_append,
    _pool_discard,
    _pool_finish,
    _pool_open,
    next_stream_token,
)

logger = logging.getLogger("repro.distributed.stream")


def priced_solution(
    instance: MarketInstance,
    assignment: Dict[str, Tuple[int, ...]],
    profits: Dict[str, float],
) -> MarketSolution:
    """The merged solution with one plan per driver, in fleet order, carrying
    the profit its shard computed rather than one re-derived from the task
    maps (a simulated driver who finishes early may chain tasks the
    deadline-based task map rules out)."""
    plans = tuple(
        DriverPlan(
            driver_id=driver.driver_id,
            task_indices=assignment.get(driver.driver_id, ()),
            profit=profits.get(driver.driver_id, 0.0),
        )
        for driver in instance.drivers
    )
    return MarketSolution(instance=instance, plans=plans, objective=Objective.DRIVERS_PROFIT)


@dataclass
class _StreamShard:
    """Coordinator-side bookkeeping for one live shard."""

    shard_id: int
    boxes: Tuple[BoundingBox, ...]
    drivers: Tuple[Driver, ...]
    #: Worker slot the shard is pinned to (-1 for driverless shards, which
    #: never open a session — their orders are rejected coordinator-side).
    slot: int
    #: Shard-local task index -> global task index, in append order.
    global_indices: List[int] = field(default_factory=list)


@dataclass(frozen=True, slots=True)
class PendingAppend:
    """One in-flight worker-side append, returned by
    :meth:`DistributedStreamSession.append_batch`.

    The ``future`` is a plain :class:`concurrent.futures.Future` on either
    policy (already resolved under the serial one, resolved by the slot's
    reader thread on a process slot); awaiting it
    — directly, or via :meth:`DistributedStreamSession.wait_pending` from an
    event loop — observes the moment the shard's worker has consumed the
    batch and dispatched every window the watermark closed.  This is the
    awaitable hook the async dispatch service builds its append-latency and
    backpressure accounting on.
    """

    shard_id: int
    future: Future

    def done(self) -> bool:
        return self.future.done()


@dataclass(frozen=True)
class DistributedStreamResult:
    """The merged streamed solution plus the stream report."""

    solution: MarketSolution
    report: StreamReport
    #: Global indices of orders no shard could serve.
    rejected_tasks: Tuple[int, ...]
    #: Final shard regions (post-rebalance).  A coordinator over
    #: ``LoadAwarePartitioner(region, result, rounds=0)`` streams over exactly
    #: these regions from the start — to reuse a rebalanced partition, or to
    #: pin determinism.
    regions: Tuple[Tuple[BoundingBox, ...], ...]


class DistributedStreamSession:
    """One live stream over per-shard sessions on a persistent pool.

    Created by :meth:`DistributedCoordinator.open_stream`.  Call
    :meth:`append_batch` for every publish-ordered arrival batch, then
    :meth:`finish` to drain the shards and merge.  Appends are asynchronous
    under the pooled policies: the coordinator keeps routing and shipping
    batches while workers run their Hungarian windows.

    Lifecycle
    ---------

    The session is a context manager, and ``with`` is the recommended way to
    hold one: the worker-side :class:`~repro.distributed.pool.ShardStreamSession`
    state lives inside a **persistent** pool, so a stream that is opened and
    then abandoned — an exception between appends, an interrupted caller, a
    service shutting down — would otherwise leak its sessions into every
    later stream on the same warm workers.  ``__exit__`` calls :meth:`close`,
    which discards the worker-resident sessions without merging; after a
    successful :meth:`finish` it is a no-op (the workers already popped
    their sessions while draining).  ``close`` is idempotent and is also
    safe on a pool that has died or been closed underneath the stream.
    """

    def __init__(
        self,
        fleet: Sequence[Driver],
        cost_model: MarketCostModel,
        config: BatchConfig,
        pool: PersistentWorkerPool,
        router: ZonePartition,
        rebalance: Optional[RebalancePolicy] = None,
    ) -> None:
        self._fleet: Tuple[Driver, ...] = tuple(fleet)
        self._fleet_pos: Dict[str, int] = {
            driver.driver_id: i for i, driver in enumerate(self._fleet)
        }
        if len(self._fleet_pos) != len(self._fleet):
            raise ValueError("driver ids must be unique")
        self._cost_model = cost_model
        self._config = config
        self._pool = pool
        self._router = router
        self._rebalance = rebalance
        self._token = next_stream_token()
        # The stream's lifetime span lives on whatever recorder the opening
        # thread has active; worker sessions collect their own spans (the
        # ``trace`` flag rides ``_pool_open``) and the merge adopts them
        # under this root.
        self._run = _FanOutRun(
            pool, "stream", executor=pool.executor, transport=pool.transport
        )

        self._tasks: List[Task] = []  # global task list, in arrival order
        self._batch_ranges: List[Tuple[int, int]] = []  # per batch: [start, end)
        self._inflight: List[PendingAppend] = []
        self._rebalances = 0
        # Set by finish, close or a worker death: no more appends.
        self._closed = False
        self._next_shard_id = 0
        self._slot_counter = 0
        self._shards: List[_StreamShard] = self._open_shards(0, self._fleet)

    # ------------------------------------------------------------------
    # shard lifecycle
    # ------------------------------------------------------------------
    def _submit(self, shard: _StreamShard, fn, *args, ship=None) -> PendingAppend:
        """Submit one worker call on ``shard``'s slot — shipping ``ship``
        over the pool's transport as ``fn``'s first argument when given —
        tagging the returned future with its shard so failures can name it:
        a dead worker surfaces as a :class:`WorkerPoolBrokenError` naming
        both the shard and the slot."""
        try:
            if ship is None:
                future = self._pool.submit(shard.slot, fn, *args)
            else:
                future = self._pool.submit_shipment(shard.slot, fn, ship, *args)
        except WorkerPoolBrokenError as exc:
            raise self._shard_broken(shard.shard_id, exc) from exc
        return PendingAppend(shard_id=shard.shard_id, future=future)

    def _collect(self, pending: PendingAppend):
        """The result of one worker call, with a worker death re-raised as
        the loss of ``pending``'s shard."""
        try:
            return pending.future.result()
        except WorkerPoolBrokenError as exc:
            raise self._shard_broken(pending.shard_id, exc) from exc

    def _shard_broken(
        self, shard_id: int, exc: WorkerPoolBrokenError
    ) -> WorkerPoolBrokenError:
        """Annotate a pool-level worker death with the shard it hit and mark
        the stream unusable (the pool is already closed by this point)."""
        self._closed = True
        self._inflight = []
        return WorkerPoolBrokenError(
            f"stream lost shard {shard_id}: {exc}", slot=exc.slot
        )

    def _split(self, first: int, points: Iterable[GeoPoint]) -> List[List[int]]:
        """Route ``points`` over the current shards and return the buckets
        of the shards from position ``first`` on — the points' owners must
        all lie there (a rebalance's fresh shards tile exactly the territory
        of the shards they replace)."""
        buckets = self._router.split(points)
        if any(buckets[:first]):
            raise RuntimeError("a rebalanced shard lost territory to a kept shard")
        return buckets[first:]

    def _open_shards(
        self, first: int, drivers: Sequence[Driver]
    ) -> List[_StreamShard]:
        """Fresh shards over the router's box groups from position ``first``
        on, each opened on a worker with the ``drivers`` routed into it (in
        the order given — fleet order, as a from-start partition meets them).
        A driverless shard opens no session."""
        shards = []
        buckets = self._split(first, (driver.source for driver in drivers))
        for boxes, bucket in zip(self._router.box_groups[first:], buckets):
            shard = _StreamShard(
                shard_id=self._next_shard_id,
                boxes=boxes,
                drivers=tuple(drivers[i] for i in bucket),
                slot=-1,
            )
            self._next_shard_id += 1
            if shard.drivers:
                shard.slot = self._slot_counter % self._pool.worker_count
                self._slot_counter += 1
                self._inflight.append(
                    self._submit(
                        shard, _pool_open, self._token, shard.shard_id, shard.drivers,
                        self._cost_model, self._config, self._run.recorder is not None,
                    )
                )
            shards.append(shard)
        return shards

    @property
    def shard_regions(self) -> Tuple[Tuple[BoundingBox, ...], ...]:
        """Current shard regions (changes when the rebalancer acts)."""
        return tuple(shard.boxes for shard in self._shards)

    @property
    def batch_count(self) -> int:
        return len(self._batch_ranges)

    @property
    def shard_task_counts(self) -> Tuple[int, ...]:
        return tuple(len(shard.global_indices) for shard in self._shards)

    @property
    def closed(self) -> bool:
        """Whether the stream can no longer accept appends (finished, closed
        or torn down after a failure)."""
        return self._closed

    def pending_counts(self) -> Dict[int, int]:
        """Not-yet-completed worker appends per shard id.

        The live window-queue depth of each shard: how many batches its pinned
        worker has accepted but not finished dispatching.  The dispatch
        service's backpressure triggers on the max over shards; under the
        serial policy appends complete inline, so every count is 0.
        """
        counts: Dict[int, int] = {}
        for pending in self._inflight:
            if not pending.done():
                counts[pending.shard_id] = counts.get(pending.shard_id, 0) + 1
        return counts

    async def wait_pending(self) -> None:
        """Await every in-flight worker append without blocking the event
        loop (the awaitable-windows hook: an asyncio caller can overlap its
        own work — routing the next batch, serving health probes — with the
        workers' window solves, then await the barrier).

        Failures propagate exactly as from :meth:`append_batch`'s eager
        check: the stream is torn down (worker sessions discarded) and the
        original error is re-raised, with worker deaths named per shard.
        """
        import asyncio

        inflight, self._inflight = self._inflight, []
        try:
            for pending in inflight:
                if not pending.done():
                    # The serial policy's futures are already done.
                    try:
                        await asyncio.wrap_future(pending.future)
                    except Exception:
                        pass  # re-read below so worker death names the shard
                self._collect(pending)
        except BaseException:
            self.close()
            raise

    def _raise_failed(self) -> None:
        """Surface any already-failed async append/open without blocking,
        pruning completed futures so the in-flight list stays bounded by the
        work actually outstanding."""
        pending: List[PendingAppend] = []
        try:
            for entry in self._inflight:
                if entry.done():
                    self._collect(entry)
                else:
                    pending.append(entry)
        except BaseException:
            self.close()
            raise
        self._inflight = pending

    def close(self) -> None:
        """Discard the worker-resident shard sessions without merging.

        The abandoned-stream teardown: idempotent, safe after :meth:`finish`
        (by then the workers have already popped their sessions) and safe on
        a pool that has been closed or broken underneath the stream.  Every
        error path — and any ``with`` exit — must land here, or a persistent
        pool accumulates dead sessions for its whole lifetime.
        """
        already_closed = self._closed
        self._closed = True
        self._inflight = []
        if already_closed:
            return
        if self._run.recorder is not None:
            # Abandoned stream: close the lifetime span so the trace stays
            # well-formed.
            self._run.recorder.end(self._run.root)
        for shard in self._shards:
            if shard.drivers:
                try:
                    self._pool.submit(
                        shard.slot, _pool_discard, self._token, shard.shard_id
                    )
                except BaseException:
                    # A closed/broken pool has no sessions left to discard.
                    pass

    def __enter__(self) -> "DistributedStreamSession":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # streaming
    # ------------------------------------------------------------------
    def append_batch(self, tasks: Iterable[Task]) -> Tuple[PendingAppend, ...]:
        """Route one publish-ordered arrival batch to its shards.

        Under the pooled policies this returns as soon as the per-shard
        batches are queued; the workers' window dispatches overlap with the
        next batch's routing.  Returns this batch's in-flight worker appends
        (one :class:`PendingAppend` per shard the batch touched, in shard
        order) — await or poll them to observe per-shard append completion;
        ignoring the return value keeps the historical fire-and-forget
        behaviour.
        """
        if self._closed:
            raise RuntimeError("stream already finished")
        batch = tuple(tasks)
        if not batch:
            return ()
        self._raise_failed()
        start = len(self._tasks)
        end = start + len(batch)
        with self._run.resumed():
            shipped = self._dispatch(0, range(start, end), batch)
            self._tasks.extend(batch)
            self._batch_ranges.append((start, end))
            self._maybe_rebalance()
        return shipped

    def _dispatch(
        self, first: int, indices: Sequence[int], tasks: Sequence[Task]
    ) -> Tuple[PendingAppend, ...]:
        """Route ``tasks`` (global indices ``indices``) over the shards from
        position ``first`` on: each owner records the indices and, if it has
        drivers, is shipped its batch.  The one loop that grows a shard."""
        shipped = []
        for shard, bucket in zip(
            self._shards[first:], self._split(first, (t.source for t in tasks))
        ):
            if not bucket:
                continue
            shard.global_indices.extend(indices[i] for i in bucket)
            if shard.drivers:
                # The pool flattens the batch only where a pipe is crossed.
                batch = (shard.shard_id, tuple(tasks[i] for i in bucket))
                shipped.append(
                    self._submit(shard, _pool_append, self._token, shard.shard_id, ship=batch)
                )
        self._inflight.extend(shipped)
        return tuple(shipped)

    # ------------------------------------------------------------------
    # skew-aware rebalance
    # ------------------------------------------------------------------
    def _maybe_rebalance(self) -> None:
        policy = self._rebalance
        if policy is None or self.batch_count % policy.check_every_batches != 0:
            return
        action = plan_rebalance_action(self.shard_task_counts, policy)
        if action is None:
            return
        self._reshard(*action.rewrite(self.shard_regions))
        self._rebalances += 1

    def _reshard(
        self,
        removed_positions: Tuple[int, ...],
        new_groups: List[Tuple[BoundingBox, ...]],
    ) -> None:
        """Replace the shards at ``removed_positions`` by fresh shards over
        ``new_groups`` (appended after the kept shards) and replay the
        removed shards' order history into them; unaffected shards never
        notice."""
        removed = [self._shards[p] for p in removed_positions]
        for shard in removed:
            if shard.drivers:
                self._inflight.append(
                    self._submit(shard, _pool_discard, self._token, shard.shard_id)
                )
        keep = [
            shard
            for position, shard in enumerate(self._shards)
            if position not in removed_positions
        ]
        self._router = ZonePartition(
            self._router.region, [shard.boxes for shard in keep] + new_groups
        )
        drivers = sorted(
            (driver for shard in removed for driver in shard.drivers),
            key=lambda driver: self._fleet_pos[driver.driver_id],
        )
        self._shards = keep + self._open_shards(len(keep), drivers)
        self._replay(
            len(keep), sorted(g for shard in removed for g in shard.global_indices)
        )

    def _replay(self, first: int, history: Sequence[int]) -> None:
        """Re-feed ``history`` (ascending global task indices) to the shards
        from position ``first`` on, cut at the stream's own batch boundaries:
        the fresh sessions see the same publish-ordered batch schedule the
        stream saw, so the result is bit-identical to a stream that used the
        new partition from the start."""
        cursor = 0
        for _start, end in self._batch_ranges:
            stop = bisect_left(history, end, cursor)
            if stop > cursor:
                indices = history[cursor:stop]
                self._dispatch(first, indices, [self._tasks[g] for g in indices])
                cursor = stop

    # ------------------------------------------------------------------
    # merge
    # ------------------------------------------------------------------
    def finish(self) -> DistributedStreamResult:
        """Drain every shard, settle the drivers and merge the results."""
        if self._closed:
            raise RuntimeError("stream already finished")
        try:
            for pending in self._inflight:
                self._collect(pending)
            self._inflight = []

            finishing = [
                self._submit(shard, _pool_finish, self._token, shard.shard_id)
                for shard in self._shards
                if shard.drivers
            ]
            # Driverless shards have no session and no result.
            results: Dict[int, ShardStreamResult] = {
                pending.shard_id: self._collect(pending) for pending in finishing
            }
        except BaseException:
            # Leave no orphaned sessions behind in the (persistent) workers.
            self.close()
            raise
        self._closed = True

        # Stitch worker-side span trees under the stream's root before the
        # merge span opens, so per-shard subtrees sit beside (not inside) it.
        run = self._run
        for shard in self._shards:
            if shard.shard_id in results:
                run.adopt(results[shard.shard_id].spans, slot=shard.slot)

        merge_span = (
            run.recorder.begin("merge", parent_id=run.root)
            if run.recorder is not None
            else obs_trace.DROPPED
        )
        merged_assignment: Dict[str, Tuple[int, ...]] = {}
        merged_profits: Dict[str, float] = {}
        rejected: set = set()
        durations: List[float] = []
        wait_total_s = 0.0
        for shard in self._shards:
            result = results.get(shard.shard_id)
            if result is None:
                # Driverless shard: every publishable order it owns is lost.
                rejected.update(
                    g for g in shard.global_indices if self._tasks[g].is_publishable
                )
                durations.append(0.0)
                continue
            for driver_id, local_path in result.assignment.items():
                merged_assignment[driver_id] = tuple(
                    shard.global_indices[m] for m in local_path
                )
            merged_profits.update(result.driver_profits)
            rejected.update(shard.global_indices[m] for m in result.rejected_tasks)
            durations.append(result.elapsed_s)
            wait_total_s += result.wait_total_s

        solution = priced_solution(
            MarketInstance(
                drivers=self._fleet, tasks=tuple(self._tasks), cost_model=self._cost_model
            ),
            merged_assignment,
            merged_profits,
        )
        if run.recorder is not None:
            run.recorder.end(merge_span)
        report = StreamReport(
            **run.close(),
            shard_count=len(self._shards),
            batch_count=self.batch_count,
            total_value=solution.total_value,
            served_count=solution.served_count,
            rejected_count=len(rejected),
            slowest_shard_s=max(durations) if durations else 0.0,
            per_shard_task_counts=self.shard_task_counts,
            per_shard_durations=tuple(durations),
            worker_count=self._pool.worker_count,
            rebalance_count=self._rebalances,
            wait_total_s=wait_total_s,
        )
        logger.debug(
            "stream finished: shards=%d batches=%d served=%d rejected=%d",
            report.shard_count,
            report.batch_count,
            report.served_count,
            report.rejected_count,
        )
        return DistributedStreamResult(
            solution=solution,
            report=report,
            rejected_tasks=tuple(sorted(rejected)),
            regions=self.shard_regions,
        )
