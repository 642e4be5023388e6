"""Coordinator for distributed (sharded) solving.

The coordinator partitions the market with a
:class:`~repro.distributed.partition.SpatialPartitioner`, hands each shard to
a worker, and merges the shard-local assignments into one global
:class:`~repro.core.MarketSolution`.  Because the partitioner gives every
shard a disjoint task set, the merge needs no conflict resolution — what the
sharding costs instead is the cross-shard trips it can no longer match, and
that loss is exactly what the partitioning ablation benchmark measures.  The
coordinator is also the factory of live streams (:meth:`open_stream`,
:meth:`solve_stream`), whose session lives in :mod:`repro.distributed.stream`.

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
    Single-process slots.  The pool flattens each shard's tasks into one
    array-backed :class:`~repro.distributed.payload.ShardPayloadDelta`
    (primal inputs only — never the object graph or cached task maps;
    pickled, or shipped through shared memory under ``transport="shm"``)
    and pickles the shard's drivers and cost model beside it; the worker
    rebuilds the sub-instance and solves it with its own interpreter, so
    the whole solve — task-network construction, task maps, greedy /
    simulator — parallelises across cores.  This is the policy that makes city-scale
    instances scale with the machine; it pays a per-worker fork and a
    per-shard shipment, so it only wins when per-shard solve time dominates
    (hundreds of tasks per shard, or many shards) — and re-solve-heavy
    callers should pass one warm ``pool=`` to every ``solve``.

Offline shards and stream batches share one wire: a shard's tasks go
through ``PersistentWorkerPool.submit_shipment``, which alone flattens
them, and its drivers as plain call arguments.  Every shard answers with a
:class:`~repro.distributed.messages.ShardResult`, and one function,
:func:`~repro.distributed.stream.merge_shard_results`, merges them.  A run
answers with one :class:`~repro.distributed.messages.DistributedResult`
whose :class:`~repro.distributed.messages.FanOutReport` is built in one
place, offline solve and stream alike.

Choosing a shard count
----------------------

More shards mean smaller per-shard solves and a better load balance across
workers, but every extra boundary loses the cross-shard trips the paper warns
about (the partitioning ablation quantifies the retention loss).  Practical
guidance: use the coarsest grid that yields at least one shard per worker
(e.g. ``4x2`` for 4-8 workers), check
:attr:`~repro.distributed.messages.FanOutReport.critical_path_speedup`
— if it is far below the shard count, the largest shard dominates and a finer
grid (or a better-balanced partition) is needed before more workers help.

Both executors consume the same per-shard
:class:`~repro.distributed.messages.ShardWorkRequest` (including the
deterministically derived per-shard seed) and the merge consumes results in
shard order, so the merged solution is bit-identical across policies.

Offline solves on the same pool
-------------------------------

The pool is not streaming-only: it is the one way
:meth:`DistributedCoordinator.solve` fans shards out.  Given ``pool=`` (a
shared pool, or the coordinator's own via ``pool=coordinator.stream_pool()``)
the per-shard ``ShardWorkRequest``s go onto its warm slots, so re-solve-heavy
offline workloads — the partitioning ablation, figure sweeps, repeated
what-if solves — pay worker startup once per pool; given none, the solve
opens a pool of the configured executor / width / transport for the one call
and closes it.  The live shards go onto the pool's slots
longest-processing-time-first over their own task counts
(:func:`~repro.distributed.pool.lpt_slot_assignment`): the hottest shards
land on separate slots before any slot takes a second one.
"""

from __future__ import annotations

import logging
import os
import time
from typing import Iterable, List, Optional, Sequence, Tuple

from ..core.objectives import Objective
from ..core.solution import MarketSolution
from ..market.cost import MarketCostModel
from ..market.driver import Driver
from ..market.instance import MarketInstance
from ..market.task import Task
from ..obs import trace as obs_trace
from ..offline.flow import ShardBounds, solve_exact_tier
from ..offline.greedy import GreedySolver
from ..online.batch import BatchConfig, stream_schedule
from ..online.dispatchers import MaxMarginDispatcher, NearestDispatcher
from ..online.simulator import OnlineSimulator
from .messages import DistributedResult, ShardResult, ShardWorkRequest, _FanOutRun
from .partition import RebalancePolicy, SpatialPartitioner
from .pool import (
    EXECUTOR_POLICIES,
    PersistentWorkerPool,
    _open_shipment,
    check_worker_count,
    lpt_slot_assignment,
)
from .stream import (  # PendingAppend: re-exported for callers of this module
    DistributedStreamSession,
    PendingAppend,
    merge_shard_results,
)
from .transport import TRANSPORTS, transport_error

#: Shard solvers available to workers, by name.
SOLVER_NAMES = ("greedy", "nearest", "maxMargin", "lp", "auto")

#: The exact-tier solvers: shards come back with a :class:`ShardBounds`
#: sandwich (greedy incumbent, LP value, LP + Lagrangian bounds) attached.
EXACT_SOLVER_NAMES = ("lp", "auto")

logger = logging.getLogger("repro.distributed.coordinator")


def _solve_instance(
    instance: MarketInstance, request: ShardWorkRequest
) -> Tuple[MarketSolution, Optional[ShardBounds]]:
    """Run the requested solver on one (sub-)instance.

    Returns the shard's solution, in shard-local task indices, and the exact
    tier's :class:`ShardBounds` record ("lp"/"auto" solvers only, ``None``
    otherwise).
    """
    if request.solver_name == "greedy":
        return GreedySolver().solve(instance).solution, None
    if request.solver_name in EXACT_SOLVER_NAMES:
        return solve_exact_tier(
            instance, mode=request.solver_name, gap_threshold=request.gap_threshold
        )
    dispatcher = (
        NearestDispatcher(seed=request.seed)
        if request.solver_name == "nearest"
        else MaxMarginDispatcher()
    )
    return OnlineSimulator(instance, dispatcher).run(), None


def solve_shard(
    shipment,
    drivers: Sequence[Driver],
    cost_model: MarketCostModel,
    request: ShardWorkRequest,
) -> ShardResult:
    """The worker entry: run the requested solver on one shard — its tasks
    in whatever form ``PersistentWorkerPool.submit_shipment`` delivered them
    (opened by the pool's one opener; every form yields the same tasks), its
    drivers and cost model as plain arguments.  The shard's id and size
    come from ``request``.

    Under tracing the solve records on a per-call flight recorder, never on
    the calling thread's (the coordinator's own, under the serial policy):
    its spans reach the coordinator's tree only through the explicit
    ``adopt`` at merge time.

    Top-level (picklable by reference) on purpose.
    """
    if request.solver_name not in SOLVER_NAMES:
        raise ValueError(f"unknown solver {request.solver_name!r}; expected one of {SOLVER_NAMES}")
    if request.task_count == 0 or request.driver_count == 0:
        exact = request.solver_name in EXACT_SOLVER_NAMES
        return ShardResult(plans=(), bounds=ShardBounds.zero() if exact else None)
    recorder = obs_trace.TraceRecorder() if request.trace else None
    with obs_trace.recording(recorder), obs_trace.span(
        "shard_solve", shard=request.shard_id, solver=request.solver_name, pid=os.getpid()
    ):
        start = time.perf_counter()
        instance = MarketInstance.create(drivers, _open_shipment(shipment), cost_model)
        solution, bounds = _solve_instance(instance, request)
        elapsed_s = time.perf_counter() - start
    return ShardResult(
        plans=solution.plans,
        rejected_tasks=solution.rejected_tasks,
        elapsed_s=elapsed_s,
        bounds=bounds,
        wait_total_s=solution.total_wait_s,
        spans=recorder.export() if recorder is not None else (),
    )


class DistributedCoordinator:
    """Partition, dispatch to workers, merge.

    Parameters
    ----------
    partitioner:
        The spatial partitioner producing disjoint-task shards; its
        ``zones`` are the one shard geometry of both :meth:`solve` and
        :meth:`open_stream`.
    solver_name:
        Shard solver: ``"greedy"``, ``"nearest"``, ``"maxMargin"``, or the
        exact tier — ``"lp"`` (per-shard arc-flow LP, certified or repaired,
        see :mod:`repro.offline.flow`) and ``"auto"`` (LP only on shards
        whose greedy solution is not already within ``gap_threshold`` of the
        Lagrangian bound).  The exact tier attaches a per-shard
        :class:`~repro.offline.flow.ShardBounds` sandwich to every result,
        surfaced as ``FanOutReport.per_shard_bounds`` and the
        ``optimality_gap`` aggregates.
    executor:
        Fan-out policy: ``"serial"`` (default) or ``"process"`` (see the
        module docstring for how to choose).
    max_workers:
        Pool width for the process policy (``None`` lets the pool pick its
        default, one per CPU); an explicit value below 1 is refused.
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
        check_worker_count(max_workers)
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
        same geometry :meth:`solve` partitions by.  Feed publish-ordered
        arrival batches with ``append_batch`` and merge with ``finish``.

        ``pool`` overrides the coordinator's own :meth:`stream_pool` with an
        externally owned :class:`PersistentWorkerPool` — the caller keeps
        ownership (the coordinator's ``close()`` never touches it), which is
        how one warm pool is shared across many coordinators in a sweep.
        """
        if pool is None:
            pool = self.stream_pool()
        logger.debug(
            "opening stream: shards=%d executor=%s transport=%s",
            self.partitioner.shard_count,
            pool.executor,
            pool.transport,
        )
        return DistributedStreamSession(
            fleet=drivers,
            cost_model=cost_model or MarketCostModel(),
            config=config or BatchConfig(),
            pool=pool,
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
    ) -> DistributedResult:
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
    ) -> DistributedResult:
        """Solve ``instance`` shard by shard and merge the results.

        Every live shard becomes one :func:`solve_shard` call on a slot of a
        :class:`PersistentWorkerPool`; the pool's executor and transport
        decide how the shard's tasks are shipped (the ``Task`` objects
        in-process, a pickled task delta, or a shared-memory descriptor).

        ``pool``
            The pool to run on; the caller keeps ownership and ``close()``s
            it after the whole sweep, so repeated offline solves — figure
            sweeps, ablations — pay worker startup once.  Pass
            ``coordinator.stream_pool()`` to share the coordinator's own
            lazily created pool with its streams.  Without one the solve
            opens a pool of the coordinator's configured executor, width and
            transport and closes it before returning.

        The live shards are placed on the pool's slots
        longest-processing-time-first over their own task counts
        (:func:`~repro.distributed.pool.lpt_slot_assignment`), so the
        hottest shards never share a slot while a colder one is free.

        **Parity contract (executor- and transport-independent):** every
        policy runs :func:`solve_shard` on the same per-shard requests and
        merges in the same shard order — placement only moves shards between
        slots — so the merged solution is bit-identical under every executor
        policy, pool width and transport (pinned by
        ``tests/distributed/test_executors.py`` and ``test_transport.py``).
        """
        if pool is not None:
            return self._solve_on(pool, instance)
        with self._new_pool() as ephemeral:
            return self._solve_on(ephemeral, instance)

    def _solve_on(
        self, pool: PersistentWorkerPool, instance: MarketInstance
    ) -> DistributedResult:
        run = _FanOutRun(
            pool,
            "solve",
            executor=pool.executor,
            transport=pool.transport,
            solver=self.solver_name,
        )
        # The run's own work nests under its root span.
        with run.resumed():
            with obs_trace.span("partition"):
                plan = self.partitioner.partition(instance)
            # Degenerate shards (no tasks or no drivers) are short-circuited
            # in-line: they never reach the pool, but they keep their slot in
            # the per-shard report series so merged reports still count them.
            results: List[Optional[ShardResult]] = [None] * len(plan.shards)
            live = [
                position
                for position, shard in enumerate(plan.shards)
                if shard.task_count and shard.driver_count
            ]
            slots = lpt_slot_assignment(
                [plan.shards[position].task_count for position in live],
                pool.worker_count,
            )
            futures = []
            for slot, position in zip(slots, live):
                shard = plan.shards[position]
                shard_id = shard.spec.shard_id
                request = ShardWorkRequest(
                    shard_id=shard_id,
                    driver_count=shard.driver_count,
                    task_count=shard.task_count,
                    solver_name=self.solver_name,
                    seed=self.base_seed + shard_id,
                    gap_threshold=self.gap_threshold,
                    trace=run.recorder is not None,
                )
                futures.append(
                    pool.submit_shipment(
                        slot,
                        solve_shard,
                        (shard_id, shard.instance.tasks),
                        shard.instance.drivers,
                        shard.instance.cost_model,
                        request,
                    )
                )
            for position, future in zip(live, futures):
                results[position] = future.result()

            # Stitch worker-side span trees under this solve's root span.
            for position in live:
                run.adopt(results[position].spans)

        with run.merging():
            solution = merge_shard_results(
                instance,
                zip((shard.global_task_indices for shard in plan.shards), results),
            )
            if self.solver_name == "greedy" or self.solver_name in EXACT_SOLVER_NAMES:
                # Task-map paths: re-priced (and later revalidated) by the
                # standard constructor.  The online shard solvers keep the
                # profits they simulated and the orders they rejected.
                solution = MarketSolution.from_assignment(
                    instance, solution.assignment(), Objective.DRIVERS_PROFIT
                )

        # A degenerate shard carries the exact tier's zero record.
        bounds = [ShardBounds.zero() if r is None else r.bounds for r in results]
        report = run.close(
            solution,
            [(shard.task_count, result) for shard, result in zip(plan.shards, results)],
            len(live),
            per_shard_bounds=tuple(bounds) if self.solver_name in EXACT_SOLVER_NAMES else (),
        )
        logger.debug(
            "solve merged: shards=%d served=%d value=%.3f executor=%s",
            report.shard_count,
            report.served_count,
            report.total_value,
            report.executor,
        )
        return DistributedResult(
            solution=solution, report=report, regions=self.partitioner.box_groups
        )
