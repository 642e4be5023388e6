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
    Single-process slots.  The pool flattens each shard into an array-backed
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
``PersistentWorkerPool.submit_shipment``, which alone flattens a shard.

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
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

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
from .messages import CoordinatorReport, ShardWorkRequest, ShardWorkResult, _FanOutRun
from .partition import (
    PartitionPlan,
    RebalancePolicy,
    ShardLoadReport,
    SpatialPartitioner,
    translate_assignment,
)
from .pool import (
    EXECUTOR_POLICIES,
    PersistentWorkerPool,
    _open_shipment,
    check_worker_count,
    lpt_slot_assignment,
)
from .stream import (  # PendingAppend: re-exported for callers of this module
    DistributedStreamResult,
    DistributedStreamSession,
    PendingAppend,
    priced_solution,
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
) -> Tuple[
    Dict[str, Tuple[int, ...]], Dict[str, float], float, int, Optional[ShardBounds]
]:
    """Run the requested solver on one (sub-)instance.

    Returns ``(assignment, driver_profits, total_value, served_count,
    bounds)`` with the assignment in shard-local task indices; ``bounds`` is
    the exact tier's :class:`ShardBounds` record ("lp"/"auto" solvers only,
    ``None`` otherwise).
    """
    bounds = None
    if request.solver_name == "greedy":
        solution = GreedySolver().solve(instance).solution
    elif request.solver_name in EXACT_SOLVER_NAMES:
        solution, bounds = solve_exact_tier(
            instance,
            mode=request.solver_name,
            gap_threshold=request.gap_threshold,
        )
    else:
        dispatcher = (
            NearestDispatcher(seed=request.seed)
            if request.solver_name == "nearest"
            else MaxMarginDispatcher()
        )
        outcome = OnlineSimulator(instance, dispatcher).run()
        driver_profits = {
            record.driver_id: record.profit
            for record in outcome.records
            if record.task_indices
        }
        return (
            outcome.assignment(), driver_profits, outcome.total_value,
            outcome.served_count, None,
        )
    driver_profits = {
        plan.driver_id: plan.profit for plan in solution.iter_nonempty_plans()
    }
    return (
        solution.assignment(), driver_profits, solution.total_value,
        solution.served_count, bounds,
    )


def _empty_shard_result(request: ShardWorkRequest) -> ShardWorkResult:
    """The (trivial) result of a degenerate shard — no tasks or no drivers.

    The coordinator synthesises it in-line, so no future is ever submitted
    for such a shard."""
    return ShardWorkResult(
        shard_id=request.shard_id,
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


def solve_shard(shipment, request: ShardWorkRequest) -> ShardWorkResult:
    """The worker entry: run the requested solver on one shard, in whatever
    form ``PersistentWorkerPool.submit_shipment`` delivered it (opened by
    the pool's one opener; every form yields the same result).  The shard's
    id and size come from ``request``.

    Under tracing the solve records on a per-call flight recorder, never on
    the calling thread's (the coordinator's own, under the serial policy):
    its spans reach the coordinator's tree only through the explicit
    ``adopt`` at merge time.

    Top-level (picklable by reference) on purpose.
    """
    if request.solver_name not in SOLVER_NAMES:
        raise ValueError(f"unknown solver {request.solver_name!r}; expected one of {SOLVER_NAMES}")
    if request.task_count == 0 or request.driver_count == 0:
        return _empty_shard_result(request)
    recorder = obs_trace.TraceRecorder() if request.trace else None
    with obs_trace.recording(recorder), obs_trace.span(
        "shard_solve", shard=request.shard_id, solver=request.solver_name, pid=os.getpid()
    ):
        start = time.perf_counter()
        instance = _open_shipment(shipment)
        assignment, driver_profits, total_value, served, bounds = _solve_instance(
            instance, request
        )
        elapsed_s = time.perf_counter() - start
    return ShardWorkResult(
        shard_id=request.shard_id,
        solver_name=request.solver_name,
        assignment=assignment,
        driver_profits=driver_profits,
        total_value=total_value,
        served_count=served,
        elapsed_s=elapsed_s,
        bounds=bounds,
        spans=recorder.export() if recorder is not None else (),
    )


@dataclass(frozen=True)
class DistributedResult:
    """The merged global solution plus the coordinator's report."""

    solution: MarketSolution
    report: CoordinatorReport
    plan: PartitionPlan


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
        # The run's own work nests under its root span.
        with run.resumed():
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
                    results[position] = _empty_shard_result(request)
                else:
                    live.append(position)

            slots = self._placement_slots(plan, live, pool.worker_count, load_report)
            futures = [
                pool.submit_shipment(
                    slot, solve_shard, plan.shards[position], requests[position]
                )
                for slot, position in zip(slots, live)
            ]
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
        return priced_solution(instance, merged, merged_profits)
