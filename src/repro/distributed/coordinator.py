"""Coordinator for distributed (sharded) solving.

The coordinator partitions the market with a
:class:`~repro.distributed.partition.SpatialPartitioner`, hands each shard to
a worker, and merges the shard-local assignments into one global
:class:`~repro.core.MarketSolution`.  Because the partitioner gives every
shard a disjoint task set, the merge needs no conflict resolution — what the
sharding costs instead is the cross-shard trips it can no longer match, and
that loss is exactly what the partitioning ablation benchmark measures.

Choosing an executor
--------------------

Every shard solve is one :func:`solve_shard` call on a slot of a
:class:`~repro.distributed.pool.PersistentWorkerPool`; the executor policy
only decides what a slot is.  The right one depends on where the time goes:

``serial`` (default)
    One inline slot: shards are solved in-process, one after another.  Zero
    overhead, fully deterministic, the right choice for small instances, for
    tests and for debugging — and the reference the process policy must
    reproduce bit-identically.

``process``
    Single-process slots.  Each shard is flattened into an array-backed
    :class:`~repro.distributed.payload.ShardPayload` (primal inputs only —
    never the object graph or cached task maps; pickled, or shipped through
    shared memory under ``transport="shm"``), the worker rebuilds the
    sub-instance and solves it with its own interpreter, so the whole solve
    — task-network construction, task maps, greedy / simulator —
    parallelises across cores.  This is the policy that makes city-scale
    instances scale with the machine; it pays a per-worker fork and a
    per-shard shipment, so it only wins when per-shard solve time dominates
    (hundreds of tasks per shard, or many shards) — and re-solve-heavy
    callers should pass one warm ``pool=`` to every ``solve``.

Offline shards and stream batches share one shipping path,
``PersistentWorkerPool.submit_shipment``, which picks the wire format.

Choosing a shard count
----------------------

More shards mean smaller per-shard solves and a better load balance across
workers, but every extra boundary loses the cross-shard trips the paper warns
about (the partitioning ablation quantifies the retention loss).  Practical
guidance: use the coarsest grid that yields at least one shard per worker
(e.g. ``4x2`` for 4-8 workers), check
:attr:`~repro.distributed.messages.CoordinatorReport.critical_path_speedup`
— if it is far below the shard count, the largest shard dominates and a finer
grid (or a better-balanced partition) is needed before more workers help.

Both executors consume the same per-shard
:class:`~repro.distributed.messages.ShardWorkRequest` (including the
deterministically derived per-shard seed) and the merge consumes results in
shard order, so the merged solution is bit-identical across policies.

Streaming on a persistent pool
------------------------------

:meth:`DistributedCoordinator.solve_stream` (and the incremental
:meth:`DistributedCoordinator.open_stream` / ``append_batch`` / ``finish``
path) serves a *live* order stream instead of an offline re-solve: arrival
batches are routed to per-shard
:class:`~repro.market.streaming.StreamingMarketInstance` sessions kept alive
inside a :class:`~repro.distributed.pool.PersistentWorkerPool`, each shard
dispatching its windows with the batched Hungarian simulator while the
coordinator is already routing the next batch.  Only
:class:`~repro.distributed.payload.ShardPayloadDelta` arrays (the new task
columns) cross the process boundary per batch, and the pool outlives
individual streams, so process startup is amortised across re-solves and
ablation sweeps.

**Parity contract (stream == replay):** every worker session runs the exact
``BatchedSimulator.run_stream`` code path on a value-identical delta round
trip, so the merged streamed solution is bit-identical to a serial per-shard
``run_stream`` replay of the same batch schedule — under either executor
policy.  The optional skew-aware rebalance (split the hottest shard, merge
cold ones between windows) deliberately trades that fixed partition for load
balance; its own contract is determinism: a rebalanced stream is bit-identical
to a from-start stream over the final (post-rebalance) regions.

Offline solves on the same pool
-------------------------------

The pool is not streaming-only: it is the one way
:meth:`DistributedCoordinator.solve` fans shards out.  Given ``pool=`` (a
shared pool, or the coordinator's own via ``pool=coordinator.stream_pool()``)
the per-shard ``ShardWorkRequest``s go onto its warm slots, so re-solve-heavy
offline workloads — the partitioning ablation, figure sweeps, repeated
what-if solves — pay worker startup once per pool; given none, the solve
opens a pool of the configured executor / width / transport for the one call
and closes it.  Pair it with a
:class:`~repro.distributed.partition.LoadAwarePartitioner` to feed one
solve's per-shard load report (``CoordinatorReport.per_shard_task_counts`` /
``DistributedStreamResult.regions``) back into the next solve's partition.
"""

from __future__ import annotations

import logging
import os
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..core.objectives import Objective
from ..obs import trace as obs_trace
from ..core.solution import DriverPlan, MarketSolution
from ..geo import BoundingBox
from ..market.cost import MarketCostModel
from ..market.driver import Driver
from ..market.instance import MarketInstance
from ..market.task import Task
from ..offline.flow import ShardBounds, solve_exact_tier
from ..offline.greedy import GreedySolver
from ..online.batch import BatchConfig, stream_schedule
from ..online.dispatchers import MaxMarginDispatcher, NearestDispatcher
from ..online.simulator import OnlineSimulator
from .messages import (
    CoordinatorReport,
    ShardStreamResult,
    ShardWorkRequest,
    ShardWorkResult,
    StreamReport,
)
from .partition import (
    MarketShard,
    PartitionPlan,
    RebalancePolicy,
    ShardLoadReport,
    SpatialPartitioner,
    ZonePartition,
    plan_rebalance_action,
    translate_assignment,
)
from .payload import ShardPayload, delta_from_tasks, instance_from_payload, payload_from_shard
from .pool import (
    EXECUTOR_POLICIES,
    PersistentWorkerPool,
    WorkerPoolBrokenError,
    _pool_append,
    _pool_discard,
    _pool_finish,
    _pool_open,
    lpt_slot_assignment,
    next_stream_token,
)
from .transport import (
    TRANSPORTS,
    DeltaDescriptor,
    delta_from_descriptor,
    transport_error,
)

#: Shard solvers available to workers, by name.
SOLVER_NAMES = ("greedy", "nearest", "maxMargin", "lp", "auto")

#: The exact-tier solvers: shards come back with a :class:`ShardBounds`
#: sandwich (greedy incumbent, LP value, LP + Lagrangian bounds) attached.
EXACT_SOLVER_NAMES = ("lp", "auto")

logger = logging.getLogger("repro.distributed.coordinator")


def _solve_instance(
    instance: MarketInstance, request: ShardWorkRequest
) -> Tuple[
    Dict[str, Tuple[int, ...]], Dict[str, float], float, int, Optional[ShardBounds]
]:
    """Run the requested solver on one (sub-)instance.

    Returns ``(assignment, driver_profits, total_value, served_count,
    bounds)`` with the assignment in shard-local task indices; ``bounds`` is
    the exact tier's :class:`ShardBounds` record ("lp"/"auto" solvers only,
    ``None`` otherwise).
    """
    if request.solver_name == "greedy":
        solution = GreedySolver().solve(instance).solution
        assignment = solution.assignment()
        driver_profits = {
            plan.driver_id: plan.profit for plan in solution.iter_nonempty_plans()
        }
        return (
            assignment,
            driver_profits,
            solution.total_value,
            solution.served_count,
            None,
        )
    if request.solver_name in EXACT_SOLVER_NAMES:
        solution, bounds = solve_exact_tier(
            instance,
            mode=request.solver_name,
            gap_threshold=request.gap_threshold,
        )
        assignment = solution.assignment()
        driver_profits = {
            plan.driver_id: plan.profit for plan in solution.iter_nonempty_plans()
        }
        return (
            assignment,
            driver_profits,
            solution.total_value,
            solution.served_count,
            bounds,
        )
    dispatcher = (
        NearestDispatcher(seed=request.seed)
        if request.solver_name == "nearest"
        else MaxMarginDispatcher()
    )
    outcome = OnlineSimulator(instance, dispatcher).run()
    assignment = outcome.assignment()
    driver_profits = {
        record.driver_id: record.profit
        for record in outcome.records
        if record.task_indices
    }
    return assignment, driver_profits, outcome.total_value, outcome.served_count, None


def _worker_recorder(request: ShardWorkRequest, shard_id: int):
    """A per-call flight recorder when the request asks for tracing.

    Returns ``(recorder, previous)`` where ``previous`` is whatever recorder
    the calling thread had installed (the coordinator's own, under the
    serial policy) — the caller must restore it, so worker-side
    span collection never leaks into the coordinator's tree except through
    the explicit ``adopt`` at merge time.
    """
    if not request.trace:
        return None, None
    recorder = obs_trace.TraceRecorder()
    previous = obs_trace.install_recorder(recorder)
    recorder.begin(
        "shard_solve",
        shard=shard_id,
        solver=request.solver_name,
        pid=os.getpid(),
    )
    return recorder, previous


def _empty_shard_result(shard_id: int, request: ShardWorkRequest) -> ShardWorkResult:
    """The (trivial) result of a degenerate shard — no tasks or no drivers.

    The coordinator synthesises it in-line, so no future is ever submitted
    for such a shard."""
    return ShardWorkResult(
        shard_id=shard_id,
        solver_name=request.solver_name,
        assignment={},
        driver_profits={},
        total_value=0.0,
        served_count=0,
        elapsed_s=0.0,
        bounds=(
            ShardBounds.zero()
            if request.solver_name in EXACT_SOLVER_NAMES
            else None
        ),
    )


def solve_shard(
    shipment: Union[MarketShard, ShardPayload, DeltaDescriptor],
    request: ShardWorkRequest,
) -> ShardWorkResult:
    """The worker entry: run the requested solver on one shard, however it
    was shipped.

    A :class:`MarketShard` (the serial slot shares the coordinator's
    interpreter) is solved on its own sub-instance; a :class:`ShardPayload`
    (pickle transport) is rebuilt first; a :class:`DeltaDescriptor` (shm
    transport) names the shared-memory segment the payload's columns are
    read from, and is opened exactly as the stream-append entry opens its
    batches.  ``instance_from_payload`` materialises plain driver/task
    objects before any solving happens, so no view over a segment outlives
    this call and the coordinator is free to recycle it once the future
    resolves.  All three produce the same result for the same shard.

    Top-level (picklable by reference) on purpose.
    """
    if request.solver_name not in SOLVER_NAMES:
        raise ValueError(f"unknown solver {request.solver_name!r}; expected one of {SOLVER_NAMES}")
    if isinstance(shipment, MarketShard):
        shard_id = shipment.spec.shard_id
        if shipment.task_count == 0 or shipment.driver_count == 0:
            return _empty_shard_result(shard_id, request)
    else:
        shard_id = shipment.shard_id
    recorder, previous = _worker_recorder(request, shard_id)
    try:
        if isinstance(shipment, DeltaDescriptor):
            # The attach span records on the worker recorder installed above.
            shipment = delta_from_descriptor(shipment)
        start = time.perf_counter()
        if isinstance(shipment, MarketShard):
            instance = shipment.instance
        else:
            with obs_trace.span("rebuild"):
                instance = instance_from_payload(shipment)
        assignment, driver_profits, total_value, served, bounds = _solve_instance(
            instance, request
        )
        elapsed_s = time.perf_counter() - start
    finally:
        if recorder is not None:
            obs_trace.install_recorder(previous)
    return ShardWorkResult(
        shard_id=shard_id,
        solver_name=request.solver_name,
        assignment=assignment,
        driver_profits=driver_profits,
        total_value=total_value,
        served_count=served,
        elapsed_s=elapsed_s,
        bounds=bounds,
        spans=recorder.export() if recorder is not None else (),
    )


class _FanOutRun:
    """The bookkeeping both fan-out runs share: opening starts the clock,
    marks the thread's flight recorder and opens the root span on it, and
    reads the pool's wire counters; :meth:`close` ends the root and returns
    the :class:`~repro.distributed.messages.FanOutReport` fields measured.
    """

    __slots__ = ("pool", "recorder", "root", "_start", "_trace_mark", "_wire_mark")

    def __init__(
        self, pool: PersistentWorkerPool, root_name: str, **root_attrs: object
    ) -> None:
        self._start = time.perf_counter()
        self.pool = pool
        self._wire_mark = pool.stats.counters()
        self.recorder = obs_trace.active_recorder()
        self._trace_mark = self.recorder.mark() if self.recorder is not None else 0
        self.root = (
            self.recorder.begin(root_name, **root_attrs)
            if self.recorder is not None
            else obs_trace.DROPPED
        )

    def adopt(self, spans: Tuple, **root_attrs: object) -> None:
        """Graft one worker's exported spans under the run's root span."""
        if self.recorder is not None and spans:
            self.recorder.adopt(spans, parent_id=self.root, **root_attrs)

    def close(self) -> Dict[str, object]:
        phase_breakdown: Tuple[Tuple[str, float], ...] = ()
        trace_span_count = 0
        if self.recorder is not None:
            self.recorder.end(self.root)
            run_spans = self.recorder.spans_since(self._trace_mark)
            phase_breakdown = obs_trace.phase_totals(run_spans)
            trace_span_count = len(run_spans)
        wall_clock_s = time.perf_counter() - self._start
        wire = self.pool.stats.counters()
        return {
            "wall_clock_s": wall_clock_s,
            "executor": self.pool.executor,
            "transport": self.pool.transport,
            "bytes_over_pipe": wire[0] - self._wire_mark[0],
            "shm_bytes": wire[1] - self._wire_mark[1],
            "segment_reuses": wire[2] - self._wire_mark[2],
            "pickle_fallbacks": wire[3] - self._wire_mark[3],
            "phase_breakdown": phase_breakdown,
            "trace_span_count": trace_span_count,
        }


@dataclass(frozen=True)
class DistributedResult:
    """The merged global solution plus the coordinator's report."""

    solution: MarketSolution
    report: CoordinatorReport
    plan: PartitionPlan


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

    The ``future`` is a :class:`concurrent.futures.Future` (already resolved
    under the serial policy) or the pool's slot wrapper of one; awaiting it
    — directly, or via :meth:`DistributedStreamSession.wait_pending` from an
    event loop — observes the moment the shard's worker has consumed the
    delta and dispatched every window the watermark closed.  This is the
    awaitable hook the async dispatch service builds its append-latency and
    backpressure accounting on.
    """

    shard_id: int
    future: object

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
    under the pooled policies: the coordinator keeps routing and building
    deltas while workers run their Hungarian windows.

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
        self._task_shard: List[int] = []  # global index -> owning shard id
        self._batch_ranges: List[Tuple[int, int]] = []  # per batch: [start, end)
        self._inflight: List[PendingAppend] = []
        self._rebalances = 0
        self._finished = False
        self._closed = False
        self._next_shard_id = 0
        self._slot_counter = 0

        self._shards: List[_StreamShard] = []
        assignments = router.route(driver.source for driver in self._fleet)
        for shard_index, group in enumerate(router.box_groups):
            drivers = tuple(
                driver
                for driver, assigned in zip(self._fleet, assignments)
                if int(assigned) == shard_index
            )
            self._shards.append(self._new_shard(group, drivers))

    # ------------------------------------------------------------------
    # shard lifecycle
    # ------------------------------------------------------------------
    def _submit(self, shard_id: int, slot: int, fn, *args) -> PendingAppend:
        """Submit one worker call, tagging the returned future with its shard
        so failures can name the shard — a dead worker surfaces as a
        :class:`WorkerPoolBrokenError` naming both the shard and the slot."""
        try:
            future = self._pool.submit(slot, fn, *args)
        except WorkerPoolBrokenError as exc:
            raise self._shard_broken(shard_id, exc) from exc
        return PendingAppend(shard_id=shard_id, future=future)

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
        self._finished = True
        self._closed = True
        self._inflight = []
        return WorkerPoolBrokenError(
            f"stream lost shard {shard_id}: {exc}", slot=exc.slot
        )

    def _new_shard(
        self, boxes: Tuple[BoundingBox, ...], drivers: Tuple[Driver, ...]
    ) -> _StreamShard:
        shard_id = self._next_shard_id
        self._next_shard_id += 1
        if drivers:
            slot = self._slot_counter % self._pool.worker_count
            self._slot_counter += 1
            self._inflight.append(
                self._submit(
                    shard_id, slot, _pool_open, self._token, shard_id, drivers,
                    self._cost_model, self._config,
                    self._run.recorder is not None,
                )
            )
        else:
            slot = -1
        return _StreamShard(shard_id=shard_id, boxes=tuple(boxes), drivers=drivers, slot=slot)

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
        return self._finished or self._closed

    def pending_counts(self) -> Dict[int, int]:
        """Not-yet-completed worker appends per shard id.

        The live window-queue depth of each shard: how many deltas its pinned
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
                    # Slot futures expose the executor's own future; the
                    # serial policy's futures are already done.
                    try:
                        await asyncio.wrap_future(pending.future.raw)
                    except Exception:
                        pass  # re-read below so worker death is translated
                # Collect through the wrapper so worker death is translated.
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
        if self._closed or self._finished:
            self._closed = True
            self._finished = True
            self._inflight = []
            return
        self._closed = True
        self._finished = True
        self._inflight = []
        if self._run.recorder is not None:
            # Abandoned stream: close the lifetime span so the trace stays
            # well-formed (no-op when finish already ended it).
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
        deltas are queued; the workers' window dispatches overlap with the
        next batch's routing.  Returns this batch's in-flight worker appends
        (one :class:`PendingAppend` per shard the batch touched) — await or
        poll them to observe per-shard append completion; ignoring the
        return value keeps the historical fire-and-forget behaviour.
        """
        if self.closed:
            raise RuntimeError("stream already finished")
        batch = tuple(tasks)
        if not batch:
            return ()
        self._raise_failed()
        start = len(self._tasks)
        before = len(self._inflight)
        routed = self._route_and_dispatch(batch, start)
        shipped = tuple(self._inflight[before:])
        self._tasks.extend(batch)
        self._task_shard.extend(routed)
        self._batch_ranges.append((start, start + len(batch)))
        self._maybe_rebalance()
        return shipped

    def _route_and_dispatch(self, batch: Tuple[Task, ...], start: int) -> List[int]:
        """Route a batch over the current shards, ship the per-shard deltas,
        and return the owning shard id per task."""
        positions = self._router.route(task.source for task in batch)
        owners: List[int] = []
        groups: Dict[int, List[Tuple[int, Task]]] = {}
        for offset, (task, position) in enumerate(zip(batch, positions)):
            shard = self._shards[int(position)]
            owners.append(shard.shard_id)
            groups.setdefault(int(position), []).append((start + offset, task))
        for position, members in groups.items():
            self._dispatch_to_shard(self._shards[position], members)
        return owners

    def _dispatch_to_shard(
        self, shard: _StreamShard, members: List[Tuple[int, Task]]
    ) -> None:
        shard.global_indices.extend(g for g, _task in members)
        if not shard.drivers:
            return
        delta = delta_from_tasks(shard.shard_id, [task for _g, task in members])
        # The pool picks the wire format: shm transport ships the delta's
        # columns through a shared segment and pickles only the descriptor.
        try:
            future = self._pool.submit_shipment(
                shard.slot, _pool_append, delta, self._token
            )
        except WorkerPoolBrokenError as exc:
            raise self._shard_broken(shard.shard_id, exc) from exc
        self._inflight.append(PendingAppend(shard_id=shard.shard_id, future=future))

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
        ``new_groups`` (appended after the kept shards), replaying the
        removed shards' order history.

        The replay feeds the new sessions the same publish-ordered batch
        schedule the stream itself saw, so the result is bit-identical to a
        stream that used the new partition from the start (unaffected shards
        never notice).
        """
        removed = [self._shards[p] for p in removed_positions]
        removed_ids = {shard.shard_id for shard in removed}
        for shard in removed:
            if shard.drivers:
                self._inflight.append(
                    self._submit(shard.shard_id, shard.slot, _pool_discard, self._token, shard.shard_id)
                )
        keep = [
            shard
            for position, shard in enumerate(self._shards)
            if position not in removed_positions
        ]
        self._router = ZonePartition(
            self._router.region, [shard.boxes for shard in keep] + new_groups
        )

        def fresh_positions(points) -> List[int]:
            # The new groups tile exactly the removed shards' territory, so
            # everything those shards held routes past the kept shards.
            positions = self._router.route(points) - len(keep)
            if (positions < 0).any():
                raise RuntimeError("a rebalanced shard lost territory to a kept shard")
            return [int(p) for p in positions]

        # Re-route the affected drivers (kept in fleet order, exactly as a
        # from-start partition would meet them).
        affected_drivers = sorted(
            (driver for shard in removed for driver in shard.drivers),
            key=lambda driver: self._fleet_pos[driver.driver_id],
        )
        driver_groups: List[List[Driver]] = [[] for _ in new_groups]
        for driver, assigned in zip(
            affected_drivers, fresh_positions(d.source for d in affected_drivers)
        ):
            driver_groups[assigned].append(driver)
        fresh = [
            self._new_shard(group, tuple(drivers))
            for group, drivers in zip(new_groups, driver_groups)
        ]
        self._shards = keep + fresh

        # Replay the removed shards' history batch by batch into the fresh
        # sessions (same order, same batch boundaries as the original stream).
        for start, end in self._batch_ranges:
            members = [
                (g, self._tasks[g])
                for g in range(start, end)
                if self._task_shard[g] in removed_ids
            ]
            if not members:
                continue
            fresh_groups: Dict[int, List[Tuple[int, Task]]] = {}
            for (g, task), assigned in zip(
                members, fresh_positions(task.source for _g, task in members)
            ):
                fresh_groups.setdefault(assigned, []).append((g, task))
            for assigned, group_members in fresh_groups.items():
                shard = fresh[assigned]
                for g, _task in group_members:
                    self._task_shard[g] = shard.shard_id
                self._dispatch_to_shard(shard, group_members)

    # ------------------------------------------------------------------
    # merge
    # ------------------------------------------------------------------
    def finish(self) -> DistributedStreamResult:
        """Drain every shard, settle the drivers and merge the results."""
        if self.closed:
            raise RuntimeError("stream already finished")
        try:
            for pending in self._inflight:
                self._collect(pending)
            self._inflight = []

            results: Dict[int, Optional[ShardStreamResult]] = {}
            finishing = []
            for shard in self._shards:
                if shard.drivers:
                    finishing.append(
                        self._submit(shard.shard_id, shard.slot, _pool_finish, self._token, shard.shard_id)
                    )
                else:
                    results[shard.shard_id] = None
            for pending in finishing:
                results[pending.shard_id] = self._collect(pending)
        except BaseException:
            # Leave no orphaned sessions behind in the (persistent) workers.
            self.close()
            raise
        self._finished = True

        # Stitch worker-side span trees under the stream's root before the
        # merge span opens, so per-shard subtrees sit beside (not inside) it.
        run = self._run
        for shard in self._shards:
            result = results[shard.shard_id]
            if result is not None:
                run.adopt(result.spans, slot=shard.slot)

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
            result = results[shard.shard_id]
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

        instance = MarketInstance(
            drivers=self._fleet, tasks=tuple(self._tasks), cost_model=self._cost_model
        )
        plans = tuple(
            DriverPlan(
                driver_id=driver.driver_id,
                task_indices=merged_assignment.get(driver.driver_id, ()),
                profit=merged_profits.get(driver.driver_id, 0.0),
            )
            for driver in self._fleet
        )
        solution = MarketSolution(
            instance=instance, plans=plans, objective=Objective.DRIVERS_PROFIT
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


class DistributedCoordinator:
    """Partition, dispatch to workers, merge.

    Parameters
    ----------
    partitioner:
        The spatial partitioner producing disjoint-task shards (a
        :class:`SpatialPartitioner` grid or a ``LoadAwarePartitioner``); its
        ``zones`` are the one shard geometry of both :meth:`solve` and
        :meth:`open_stream`.
    solver_name:
        Shard solver: ``"greedy"``, ``"nearest"``, ``"maxMargin"``, or the
        exact tier — ``"lp"`` (per-shard arc-flow LP, certified or repaired,
        see :mod:`repro.offline.flow`) and ``"auto"`` (LP only on shards
        whose greedy solution is not already within ``gap_threshold`` of the
        Lagrangian bound).  The exact tier attaches a per-shard
        :class:`~repro.offline.flow.ShardBounds` sandwich to every result,
        surfaced as ``CoordinatorReport.per_shard_bounds`` and the
        ``optimality_gap`` aggregates.
    executor:
        Fan-out policy: ``"serial"`` (default) or ``"process"`` (see the
        module docstring for how to choose).
    max_workers:
        Pool width for the process policy (``None`` lets the pool pick its
        default).
    base_seed:
        Base of the deterministic per-shard seeds (shard ``k`` receives
        ``base_seed + k``), so stochastic shard solvers are reproducible and
        executor-independent.
    transport:
        Wire format for the coordinator's own pools: ``"pickle"`` (default)
        or ``"shm"`` (zero-copy shared-memory shipments; engaged on the
        process policy, where a pipe exists).  Parity contract 16 pins
        shm == pickle merges.
    gap_threshold:
        Relative-gap knob for ``solver_name="auto"``: shards whose greedy
        value is within this fraction of the Lagrangian bound skip the LP
        ("greedy is good enough").  Ignored by the other solvers.
    """

    def __init__(
        self,
        partitioner: SpatialPartitioner,
        solver_name: str = "greedy",
        max_workers: Optional[int] = None,
        executor: str = "serial",
        base_seed: int = 0,
        transport: str = "pickle",
        gap_threshold: float = 0.02,
    ) -> None:
        if solver_name not in SOLVER_NAMES:
            raise ValueError(f"unknown solver {solver_name!r}; expected one of {SOLVER_NAMES}")
        if executor not in EXECUTOR_POLICIES:
            raise ValueError(
                f"unknown executor {executor!r}; expected one of {EXECUTOR_POLICIES}"
            )
        if transport not in TRANSPORTS:
            raise transport_error(transport)
        self.partitioner = partitioner
        self.solver_name = solver_name
        self.executor = executor
        self.max_workers = max_workers
        self.base_seed = base_seed
        self.transport = transport
        self.gap_threshold = gap_threshold
        self._stream_pool: Optional[PersistentWorkerPool] = None

    # ------------------------------------------------------------------
    # streaming on the persistent pool
    # ------------------------------------------------------------------
    def stream_pool(self) -> PersistentWorkerPool:
        """The coordinator's persistent worker pool (created lazily, kept
        alive across streams *and* ``solve(pool=coordinator.stream_pool())``
        offline solves, so re-solves and sweeps amortise its startup)."""
        # A pool whose worker died has closed itself; hand out a fresh one
        # rather than re-raising the stale death on every later stream.
        if self._stream_pool is None or self._stream_pool.closed:
            self._stream_pool = self._new_pool()
        return self._stream_pool

    def _new_pool(self) -> PersistentWorkerPool:
        return PersistentWorkerPool(
            executor=self.executor,
            worker_count=self.max_workers,
            transport=self.transport,
        )

    @property
    def current_pool(self) -> Optional[PersistentWorkerPool]:
        """The persistent pool if one exists, without creating it — for
        observers (health endpoints) that must not resurrect a closed pool."""
        return self._stream_pool

    def close(self) -> None:
        """Shut the persistent pool down (idempotent; a new stream reopens it)."""
        if self._stream_pool is not None:
            self._stream_pool.close()
            self._stream_pool = None

    def __enter__(self) -> "DistributedCoordinator":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def open_stream(
        self,
        drivers: Iterable[Driver],
        cost_model: Optional[MarketCostModel] = None,
        *,
        config: Optional[BatchConfig] = None,
        rebalance: Optional[RebalancePolicy] = None,
        pool: Optional[PersistentWorkerPool] = None,
    ) -> DistributedStreamSession:
        """Open a live stream: per-shard streaming sessions on the pool.

        Drivers and orders are routed to shards through the partitioner's
        :attr:`~repro.distributed.partition.SpatialPartitioner.zones` — the
        same geometry :meth:`solve` partitions by.  To stream over a previous
        stream's post-rebalance :attr:`DistributedStreamResult.regions`, use
        a coordinator over ``LoadAwarePartitioner(region, result,
        rounds=0)``.  Feed publish-ordered arrival batches with
        ``append_batch`` and merge with ``finish``.

        ``pool`` overrides the coordinator's own :meth:`stream_pool` with an
        externally owned :class:`PersistentWorkerPool` — the caller keeps
        ownership (the coordinator's ``close()`` never touches it), which is
        how one warm pool is shared across many coordinators in a sweep.
        """
        logger.debug(
            "opening stream: shards=%d executor=%s transport=%s",
            self.partitioner.shard_count,
            self.executor,
            self.transport,
        )
        return DistributedStreamSession(
            fleet=drivers,
            cost_model=cost_model or MarketCostModel(),
            config=config or BatchConfig(),
            pool=pool if pool is not None else self.stream_pool(),
            router=self.partitioner.zones,
            rebalance=rebalance,
        )

    def solve_stream(
        self,
        instance: MarketInstance,
        arrival_batches: Optional[Iterable[Sequence[Task]]] = None,
        *,
        config: Optional[BatchConfig] = None,
        rebalance: Optional[RebalancePolicy] = None,
        pool: Optional[PersistentWorkerPool] = None,
    ) -> DistributedStreamResult:
        """Stream ``instance``'s orders through the sharded pool and merge.

        ``arrival_batches`` defaults to the instance's own tasks — *all* of
        them, including non-publishable ones — grouped into publish windows
        (:func:`~repro.online.batch.stream_schedule`), which makes
        ``solve_stream(instance)`` the sharded twin of
        ``BatchedSimulator.run`` (same task population, so metrics share
        denominators) and bit-identical to a serial per-shard ``run_stream``
        replay of the same schedule.  The merged solution's instance holds
        the tasks in arrival (publish) order.
        """
        chosen_config = config or BatchConfig()
        if arrival_batches is None:
            arrival_batches = stream_schedule(instance.tasks, chosen_config.window_s)
        # The ``with`` guarantees worker-side sessions are discarded when any
        # append or the merge fails — a failed solve must not leak state into
        # the persistent pool's workers.
        with self.open_stream(
            instance.drivers,
            instance.cost_model,
            config=chosen_config,
            rebalance=rebalance,
            pool=pool,
        ) as session:
            for batch in arrival_batches:
                session.append_batch(batch)
            return session.finish()

    def solve(
        self,
        instance: MarketInstance,
        *,
        pool: Optional[PersistentWorkerPool] = None,
        load_report: Optional[ShardLoadReport] = None,
    ) -> DistributedResult:
        """Solve ``instance`` shard by shard and merge the results.

        Every live shard becomes one :func:`solve_shard` call on a slot of a
        :class:`PersistentWorkerPool`; the pool's executor and transport
        decide how the shard is shipped (the shard itself in-process, a
        pickled payload, or a shared-memory descriptor).

        ``pool``
            The pool to run on; the caller keeps ownership and ``close()``s
            it after the whole sweep, so repeated offline solves — figure
            sweeps, ablations — pay worker startup once.  Pass
            ``coordinator.stream_pool()`` to share the coordinator's own
            lazily created pool with its streams.  Without one the solve
            opens a pool of the coordinator's configured executor, width and
            transport and closes it before returning.

        ``load_report`` switches the shard->slot placement from round-robin
        to longest-processing-time-first over the loads a *prior* solve
        observed (anything :meth:`ShardLoadReport.from_prior` accepts — a
        report, a prior ``DistributedResult``/stream result, or a bare
        plan).  When the report's shard count no longer matches the current
        partition, the current shards' own task counts stand in.  Packing
        the hottest shards onto separate single-worker slots first caps the
        slowest slot far below what round-robin risks on skewed cities.

        **Parity contract (executor-, transport- and placement-independent):**
        every policy runs :func:`solve_shard` on the same per-shard requests
        and merges in the same shard order — placement only moves shards
        between slots — so the merged solution is bit-identical under every
        executor policy, either transport and any placement (pinned by
        ``tests/distributed/test_executors.py``, ``test_transport.py`` and
        ``test_placement.py``).
        """
        if pool is not None:
            return self._solve_on(pool, instance, load_report)
        with self._new_pool() as ephemeral:
            return self._solve_on(ephemeral, instance, load_report)

    def _solve_on(
        self,
        pool: PersistentWorkerPool,
        instance: MarketInstance,
        load_report: Optional[ShardLoadReport],
    ) -> DistributedResult:
        run = _FanOutRun(
            pool, "solve", executor=self.executor, solver=self.solver_name
        )
        with obs_trace.span("partition"):
            plan = self.partitioner.partition(instance)
        requests = [
            ShardWorkRequest(
                shard_id=shard.spec.shard_id,
                driver_count=shard.driver_count,
                task_count=shard.task_count,
                solver_name=self.solver_name,
                seed=self.base_seed + shard.spec.shard_id,
                gap_threshold=self.gap_threshold,
                trace=run.recorder is not None,
            )
            for shard in plan.shards
        ]

        # Degenerate shards (no tasks or no drivers) are short-circuited
        # in-line: they never reach the pool, but they keep their slot in
        # the per-shard report series so merged reports still count them.
        results: List[Optional[ShardWorkResult]] = [None] * len(plan.shards)
        live: List[int] = []
        for position, (shard, request) in enumerate(zip(plan.shards, requests)):
            if shard.task_count == 0 or shard.driver_count == 0:
                results[position] = _empty_shard_result(shard.spec.shard_id, request)
            else:
                live.append(position)

        slots = self._placement_slots(plan, live, pool.worker_count, load_report)
        # An inline slot shares this interpreter and takes the shard itself;
        # a process slot is shipped the shard's array-backed payload.
        futures = []
        for slot, position in zip(slots, live):
            shard = plan.shards[position]
            shipment = payload_from_shard(shard) if pool.executor == "process" else shard
            futures.append(
                pool.submit_shipment(slot, solve_shard, shipment, requests[position])
            )
        for position, future in zip(live, futures):
            results[position] = future.result()
        solved = [result for result in results if result is not None]

        # Stitch worker-side span trees under this solve's root span.
        for result in solved:
            run.adopt(result.spans)

        with obs_trace.span("merge"):
            merged: Dict[str, Tuple[int, ...]] = {}
            merged_profits: Dict[str, float] = {}
            for shard, result in zip(plan.shards, solved):
                merged.update(translate_assignment(shard, result.assignment))
                merged_profits.update(result.driver_profits)
            solution = self._merge_solution(instance, merged, merged_profits)

        durations = tuple(r.elapsed_s for r in solved)
        report = CoordinatorReport(
            **run.close(),
            shard_count=plan.shard_count,
            total_value=solution.total_value,
            served_count=solution.served_count,
            slowest_shard_s=max(durations) if durations else 0.0,
            per_shard_values=tuple(r.total_value for r in solved),
            per_shard_durations=durations,
            worker_count=max(1, min(pool.worker_count, len(live))),
            empty_shard_count=len(plan.shards) - len(live),
            per_shard_task_counts=tuple(shard.task_count for shard in plan.shards),
            per_shard_bounds=(
                tuple(r.bounds for r in solved)
                if self.solver_name in EXACT_SOLVER_NAMES
                else ()
            ),
        )
        logger.debug(
            "solve merged: shards=%d served=%d value=%.3f executor=%s",
            report.shard_count,
            report.served_count,
            report.total_value,
            report.executor,
        )
        return DistributedResult(solution=solution, report=report, plan=plan)

    def _placement_slots(
        self,
        plan: PartitionPlan,
        live: List[int],
        slot_count: int,
        load_report: Optional[ShardLoadReport],
    ) -> List[int]:
        """One pool slot per live shard.

        Round-robin in shard order by default; with a prior load report,
        longest-processing-time-first over the reported loads.  The report's
        loads are only trusted when its regions match the current partition
        shard-for-shard — a report from a different grid (or a rebalanced
        stream) falls back to the current shards' own task counts rather
        than attributing loads to the wrong shards.
        """
        if load_report is None:
            return list(range(len(live)))
        report = ShardLoadReport.from_prior(load_report)
        if report.regions == tuple(shard.spec.boxes for shard in plan.shards):
            loads = [float(report.task_counts[position]) for position in live]
        else:
            loads = [float(plan.shards[position].task_count) for position in live]
        return lpt_slot_assignment(loads, max(1, min(slot_count, len(live))))

    # ------------------------------------------------------------------
    # merge
    # ------------------------------------------------------------------
    def _merge_solution(
        self,
        instance: MarketInstance,
        merged: Dict[str, Tuple[int, ...]],
        merged_profits: Dict[str, float],
    ) -> MarketSolution:
        """Assemble the global solution from the shard results.

        For the greedy and exact-tier shard solvers the plans are valid
        task-map paths and the solution is rebuilt (and revalidated) through
        the standard constructor.  The online shard solvers may chain tasks
        that the deadline-based task map rules out (a driver who finishes
        early can legally reach them), so their plans carry the profits
        computed by the simulator instead of being re-derived from the task
        map.
        """
        if self.solver_name == "greedy" or self.solver_name in EXACT_SOLVER_NAMES:
            return MarketSolution.from_assignment(instance, merged, Objective.DRIVERS_PROFIT)
        plans = tuple(
            DriverPlan(
                driver_id=driver.driver_id,
                task_indices=tuple(merged.get(driver.driver_id, ())),
                profit=merged_profits.get(driver.driver_id, 0.0),
            )
            for driver in instance.drivers
        )
        return MarketSolution(instance=instance, plans=plans, objective=Objective.DRIVERS_PROFIT)
