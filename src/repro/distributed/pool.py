"""Persistent worker pool hosting per-shard streaming market sessions.

Forking workers for every ``solve()`` and shipping each shard's whole
payload once is fine for a one-off offline solve, wasteful for a live stream
where the same shards receive dozens of arrival batches and for ablation
sweeps that re-solve the same city many times.  This module keeps the
workers (and the per-shard streaming state living inside them) alive:

* :class:`PersistentWorkerPool` owns ``worker_count`` *slot executors*.  Each
  slot is a single-worker :class:`~concurrent.futures.ProcessPoolExecutor`
  (or inline execution for the serial policy), so every call submitted to a
  slot runs in the **same** process, in submission order.  Shards are pinned
  to slots, which is what lets a worker process hold a shard's
  :class:`~repro.market.streaming.StreamingMarketInstance` across batches
  instead of rebuilding it.
* :class:`ShardStreamSession` is the worker-resident state of one shard's
  stream: a streaming instance plus a
  :class:`~repro.online.batch.BatchedSimulator` consuming it through the
  incremental ``stream_begin`` / ``stream_feed`` / ``stream_end`` API — the
  exact ``run_stream`` code path, so pooled streaming inherits the
  stream==replay parity contract.
* The ``_pool_open`` / ``_pool_append`` / ``_pool_finish`` / ``_pool_discard``
  functions are the wire protocol.  They are top-level (picklable by
  reference) and resolve sessions from a per-process registry keyed by a
  coordinator-unique token, so one long-lived pool can serve many streams
  (re-solves, ablation sweeps) back to back — the startup cost of the worker
  processes is paid once per pool, not once per solve.

The pool owns the wire.  Callers hand :meth:`PersistentWorkerPool.submit_shipment`
what they hold — an offline solve's ``MarketShard`` or a stream batch's
``(shard_id, tasks)`` — and it is the one place a record is flattened: an
inline slot gets the caller's objects, a process slot their primal inputs as
flat columns (:mod:`repro.distributed.payload`).  Both worker entries open
what arrived with the one opener, :func:`_open_shipment`.

Every submit returns a :class:`concurrent.futures.Future`-alike: an already
resolved ``Future`` under the serial policy, a :class:`_SlotFuture` (which
translates worker death) on a process slot.

The pool is also the offline execution substrate: the coordinator's
``solve()`` dispatches one-shot shard solves (top-level ``solve_shard``
calls) onto the same slot executors, so streaming sessions and offline
re-solves share one set of warm workers.  Slots make no assumption about
what runs on them — they are plain single-worker executors with a
submission-order guarantee.
"""

from __future__ import annotations

import itertools
import logging
import multiprocessing
import os
import time
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..market.cost import MarketCostModel
from ..market.driver import Driver
from ..market.instance import MarketInstance
from ..market.streaming import StreamingMarketInstance
from ..market.task import Task
from ..obs import logs as obs_logs
from ..obs import trace as obs_trace
from ..online.batch import BatchConfig, BatchedSimulator
from ..runtime import pin_blas_threads
from .messages import ShardStreamResult
from .partition import MarketShard
from .payload import (
    ShardPayload,
    delta_from_tasks,
    instance_from_payload,
    payload_from_shard,
    tasks_from_delta,
)
from .transport import (
    TRANSPORTS,
    DeltaDescriptor,
    ShmShipper,
    TransportStats,
    delta_from_descriptor,
    delta_wire_bytes,
    transport_error,
)

#: The executor policies — what a pool slot is: inline in the caller's
#: process, or a single-worker child process.
EXECUTOR_POLICIES = ("serial", "process")

logger = logging.getLogger("repro.distributed.pool")


def _slot_initializer(log_spec=None) -> None:
    """Runs once in every pool worker process, before any shard work.

    Pins the native BLAS/OpenMP pools to one thread — the pool's parallelism
    is *across* worker processes, and nested threading would oversubscribe
    the cores — and routes the worker's ``repro.*`` log records into the
    parent's relay queue (``log_spec`` is ``(queue, level)``, or None when
    the parent never configured logging — then ``REPRO_LOG`` still applies
    worker-locally).
    """
    pin_blas_threads()
    obs_logs.init_worker_logging(log_spec)
    logger.debug("slot worker initialised: pid=%d", os.getpid())


class WorkerPoolBrokenError(RuntimeError):
    """A slot's worker died (OOM-kill, ``os._exit``, crash) and the pool shut
    itself down.

    Raised instead of the opaque :class:`concurrent.futures.BrokenExecutor`
    a dead ``ProcessPoolExecutor`` produces: the message names the slot (and,
    when the failing call is a stream append, the coordinator re-raises with
    the shard id), and by the time the caller sees it the pool is already
    **closed** — every other slot has been shut down with its queued work
    cancelled — so a crash can never leave a half-poisoned pool accepting
    new submissions on the surviving slots.
    """

    def __init__(self, message: str, *, slot: Optional[int] = None) -> None:
        super().__init__(message)
        self.slot = slot


class ShardStreamSession:
    """One shard's live stream state, resident in its pinned worker.

    Wraps a :class:`StreamingMarketInstance` over the shard's drivers and a
    :class:`BatchedSimulator` consuming it incrementally.  ``append`` feeds
    one publish-ordered arrival batch (dispatching every window the watermark
    proves complete); ``finish`` flushes the final window and settles.
    """

    def __init__(
        self,
        shard_id: int,
        drivers: Sequence[Driver],
        cost_model: MarketCostModel,
        config: Optional[BatchConfig] = None,
        trace: bool = False,
    ) -> None:
        self.shard_id = shard_id
        self._instance = StreamingMarketInstance(drivers, cost_model)
        self._simulator = BatchedSimulator(self._instance, config or BatchConfig())
        # Session-lifetime flight recorder: spans from every append (and the
        # nested candidate/Hungarian spans the simulator records) accumulate
        # here and ship back on the finish result's ``spans`` tuple.  The
        # recorder is installed only for the duration of each call, so under
        # the serial policy the coordinator's own recorder is back in place
        # between calls.
        self._recorder = obs_trace.TraceRecorder() if trace else None
        self._root_span = (
            self._recorder.begin(
                "shard_stream", shard=shard_id, pid=os.getpid()
            )
            if self._recorder is not None
            else obs_trace.DROPPED
        )
        with obs_trace.recording(self._recorder):
            self._simulator.stream_begin()
        self._elapsed_s = 0.0
        self._task_count = 0

    @property
    def task_count(self) -> int:
        """How many tasks this shard's stream has accumulated so far."""
        return self._task_count

    def append(self, tasks: Sequence[Task]) -> int:
        """Feed one arrival batch; returns the shard's running task count."""
        with obs_trace.recording(self._recorder), obs_trace.span(
            "append", batch_size=len(tasks)
        ):
            start = time.perf_counter()
            self._simulator.stream_feed(tasks)
            self._elapsed_s += time.perf_counter() - start
        self._task_count += len(tasks)
        return self._task_count

    def finish(self) -> ShardStreamResult:
        """Flush the last window, settle every driver, report the result."""
        with obs_trace.recording(self._recorder), obs_trace.span("flush"):
            start = time.perf_counter()
            outcome = self._simulator.stream_end()
            self._elapsed_s += time.perf_counter() - start
        if self._recorder is not None:
            self._recorder.end(self._root_span)
        return ShardStreamResult(
            shard_id=self.shard_id,
            assignment=outcome.assignment(),
            # Every driver: under horizon dispatch an idle driver who was
            # repositioned carries that move's cost as a negative profit.
            driver_profits={record.driver_id: record.profit for record in outcome.records},
            rejected_tasks=outcome.rejected_tasks,
            task_count=self._task_count,
            total_value=outcome.total_value,
            served_count=outcome.served_count,
            elapsed_s=self._elapsed_s,
            wait_total_s=outcome.total_wait_s,
            spans=self._recorder.export() if self._recorder is not None else (),
        )


# ----------------------------------------------------------------------
# worker-side protocol
# ----------------------------------------------------------------------
#: Sessions resident in *this* process, keyed by (stream token, shard id).
#: In a worker process the registry holds the shards pinned to that worker;
#: under the serial policy it lives in the coordinator's process.
_SESSIONS: Dict[Tuple[int, int], ShardStreamSession] = {}

#: Coordinator-side token source; unique per coordinator process, which makes
#: (token, shard_id) unique inside every worker even when one pool serves
#: many consecutive streams.
_TOKENS = itertools.count(1)


def next_stream_token() -> int:
    """A process-unique token identifying one stream on a shared pool."""
    return next(_TOKENS)


def _pool_open(
    token: int,
    shard_id: int,
    drivers: Tuple[Driver, ...],
    cost_model: MarketCostModel,
    config: Optional[BatchConfig],
    trace: bool = False,
) -> int:
    _SESSIONS[(token, shard_id)] = ShardStreamSession(
        shard_id, drivers, cost_model, config, trace=trace
    )
    return shard_id


def _open_shipment(shipment) -> Union[MarketInstance, Tuple[Task, ...]]:
    """What a slot received, as the caller shipped it: a shard's sub-instance
    or a batch's tasks.  Records are rebuilt into plain objects here, so no
    view over a shm segment outlives the call."""
    if isinstance(shipment, MarketShard):
        return shipment.instance
    if isinstance(shipment, tuple):
        return shipment[1]
    if isinstance(shipment, DeltaDescriptor):
        shipment = delta_from_descriptor(shipment)
    if isinstance(shipment, ShardPayload):
        with obs_trace.span("rebuild"):
            return instance_from_payload(shipment)
    return tasks_from_delta(shipment)


def _pool_append(shipment, token: int, shard_id: int) -> int:
    """The stream-append worker entry: feed one batch to its shard's session."""
    session = _SESSIONS[(token, shard_id)]
    # Open under the session recorder so the attach span lands on this shard.
    with obs_trace.recording(session._recorder):
        tasks = _open_shipment(shipment)
    return session.append(tasks)


def _pool_finish(token: int, shard_id: int) -> ShardStreamResult:
    return _SESSIONS.pop((token, shard_id)).finish()


def _pool_discard(token: int, shard_id: int) -> None:
    _SESSIONS.pop((token, shard_id), None)


def _pool_session_count() -> int:
    """How many stream sessions are resident in *this* process.

    A lifecycle probe (submit it to a slot to count that worker's resident
    sessions): abandoned-stream regression tests use it to assert that
    ``close()``/``__exit__`` really did discard worker-side state.
    """
    return len(_SESSIONS)


# ----------------------------------------------------------------------
# slot placement
# ----------------------------------------------------------------------
def lpt_slot_assignment(loads: Sequence[float], slot_count: int) -> List[int]:
    """Longest-processing-time-first assignment of work items to slots.

    Returns one slot index per item (aligned with ``loads``): items are
    taken in decreasing load order (ties broken by position, so the result
    is deterministic) and each goes to the currently least-loaded slot
    (ties broken by slot index).  The classic LPT list-scheduling rule —
    a 4/3-approximation of the optimal makespan — which packs skewed shard
    loads onto single-worker slots far better than round-robin: round-robin
    can put the two hottest shards on the same slot, LPT never does while a
    colder slot exists.

    Used by ``DistributedCoordinator.solve(load_report=...)``;
    placement only changes *where* a shard runs, never its request or the
    merge order, so the merged solution is placement-independent.
    """
    if slot_count < 1:
        raise ValueError("slot_count must be >= 1")
    slot_loads = [0.0] * slot_count
    assignment = [0] * len(loads)
    order = sorted(range(len(loads)), key=lambda i: (-float(loads[i]), i))
    for item in order:
        slot = min(range(slot_count), key=lambda j: (slot_loads[j], j))
        assignment[item] = slot
        slot_loads[slot] += float(loads[item])
    return assignment


# ----------------------------------------------------------------------
# the pool
# ----------------------------------------------------------------------
class _SlotFuture:
    """A slot executor's future, with worker death translated on the way out.

    Delegates to the wrapped :class:`concurrent.futures.Future`; when the
    result is a :class:`BrokenExecutor` (the worker process died mid-call),
    the pool is torn down and the caller gets a :class:`WorkerPoolBrokenError`
    naming the slot instead of the executor's context-free crash.
    """

    __slots__ = ("_pool", "_slot", "_future")

    def __init__(self, pool: "PersistentWorkerPool", slot: int, future) -> None:
        self._pool = pool
        self._slot = slot
        self._future = future

    @property
    def raw(self):
        """The underlying :class:`concurrent.futures.Future` (for
        ``asyncio.wrap_future`` interop; errors read through it are *not*
        translated — prefer :meth:`result`)."""
        return self._future

    def done(self) -> bool:
        return self._future.done()

    def cancel(self) -> bool:
        return self._future.cancel()

    def add_done_callback(self, fn) -> None:
        self._future.add_done_callback(lambda _f: fn(self))

    def exception(self, timeout: Optional[float] = None) -> Optional[BaseException]:
        """The call's exception, untranslated (observability only — use
        :meth:`result` to get worker deaths translated and the pool closed)."""
        return self._future.exception(timeout)

    def result(self, timeout: Optional[float] = None):
        try:
            return self._future.result(timeout)
        except BrokenExecutor as exc:
            raise self._pool._mark_broken(self._slot, exc) from exc


class PersistentWorkerPool:
    """A fixed set of slot executors that stay alive across streams.

    Parameters
    ----------
    executor:
        ``"serial"`` (inline execution, 1 slot) or ``"process"``.  Process
        slots are **single-worker** executors: work submitted to one slot
        runs in one OS process in submission order, which is the ordering +
        locality guarantee the shard sessions rely on.
    worker_count:
        Number of slots for the process policy (default: CPU count).
    transport:
        ``"pickle"`` (default) ships payloads/deltas as pickled call
        arguments; ``"shm"`` ships the array columns through shared-memory
        segments owned by the pool's :class:`~repro.distributed.transport.ShmShipper`
        and only descriptors cross the pipe.  Shared memory is engaged only
        where a pipe exists (the process policy); under serial the setting
        is accepted and recorded but nothing is shipped at all, so both
        transports are trivially identical there.  Parity contract 16 pins
        shm == pickle merges on the process policy.  Either way
        :meth:`submit_shipment` is the one shipping path.

    Lifecycle
    ---------

    Slot executors are created lazily on first submit to a slot and stay
    alive until :meth:`close` — there is no per-stream or per-solve setup or
    teardown.  The pool is reusable across *kinds* of work, not just across
    streams: open as many consecutive streams on it as needed (each
    identified by :func:`next_stream_token`), interleave offline
    ``solve(pool=...)`` fan-outs on the same slots, and ``close()`` it once.
    ``close()`` is idempotent and terminal: a closed pool raises on submit
    rather than silently re-forking.

    Slot pinning
    ------------

    ``submit(slot, ...)`` reduces ``slot`` modulo :attr:`worker_count`, so a
    caller can use any stable integer (a shard id, a round-robin counter) as
    the pinning key.  Work pinned to the same slot runs in the same
    process in submission order — the locality guarantee that lets a
    worker hold shard state across calls; work on different slots runs
    concurrently with no ordering relation.
    """

    def __init__(
        self,
        executor: str = "process",
        worker_count: Optional[int] = None,
        *,
        transport: str = "pickle",
    ) -> None:
        if executor not in EXECUTOR_POLICIES:
            raise ValueError(
                f"unknown executor {executor!r}; expected one of {EXECUTOR_POLICIES}"
            )
        if transport not in TRANSPORTS:
            raise transport_error(transport)
        self.executor = executor
        self.transport = transport
        if executor == "serial":
            self.worker_count = 1
        else:
            self.worker_count = max(1, worker_count or os.cpu_count() or 1)
        self._slots: List[Optional[ProcessPoolExecutor]] = [None] * self.worker_count
        self._closed = False
        self._broken: Optional[WorkerPoolBrokenError] = None
        self.stats = TransportStats(transport=transport)
        self._shipper: Optional[ShmShipper] = None
        self._log_queue = None
        self._log_listener = None
        logger.debug(
            "pool created: executor=%s worker_count=%d transport=%s",
            executor,
            self.worker_count,
            transport,
        )

    @property
    def shm_active(self) -> bool:
        """Whether shipments on this pool actually go through shared memory
        (shm transport *and* a real pipe to cross)."""
        return self.transport == "shm" and self.executor == "process"

    @property
    def shipper(self) -> ShmShipper:
        """The pool's segment manager (created lazily; shm transport only)."""
        if not self.shm_active:
            raise RuntimeError("shipper is only available on shm-transport process pools")
        self._check_open()
        if self._shipper is None:
            self._shipper = ShmShipper(stats=self.stats)
        return self._shipper

    def _log_spec(self):
        """``(queue, level)`` relaying worker log records to this process.

        Created lazily with the first process slot, and only when the parent
        actually configured ``repro`` logging — otherwise workers get None
        and fall back to their own ``REPRO_LOG`` handling, and the pool pays
        nothing for the feature.
        """
        level = obs_logs.configured_level()
        if level is None:
            return None
        if self._log_queue is None:
            self._log_queue = multiprocessing.Queue()
            self._log_listener = obs_logs.start_record_relay(self._log_queue)
        return (self._log_queue, level)

    def _slot_executor(self, slot: int) -> ProcessPoolExecutor:
        pool = self._slots[slot]
        if pool is None:
            pool = self._slots[slot] = ProcessPoolExecutor(
                max_workers=1,
                initializer=_slot_initializer,
                initargs=(self._log_spec(),),
            )
        return pool

    @property
    def broken(self) -> bool:
        """Whether a worker death has torn the pool down."""
        return self._broken is not None

    @property
    def closed(self) -> bool:
        """Whether the pool has been shut down — by :meth:`close`, or by a
        worker death (a broken pool closes itself)."""
        return self._closed

    def _mark_broken(self, slot: int, cause: BaseException) -> WorkerPoolBrokenError:
        """Record a dead worker and tear the whole pool down.

        Every slot is shut down with its queued work cancelled, so the crash
        of one worker can never leave the pool half-poisoned — alive on some
        slots, broken on others.  Returns (does not raise) the diagnostic
        error so callers can chain it onto the executor's own exception.
        """
        if self._broken is None:
            logger.error(
                "worker slot %d/%d died mid-call (%s); closing the pool",
                slot,
                self.worker_count,
                type(cause).__name__,
            )
            self._broken = WorkerPoolBrokenError(
                f"worker slot {slot}/{self.worker_count} of this {self.executor!r} "
                f"pool died mid-call ({type(cause).__name__}: {cause}); the pool "
                "has been closed — open a fresh pool to continue",
                slot=slot,
            )
            self.close(cancel_pending=True)
        return self._broken

    def _check_open(self) -> None:
        """Raise the worker death that broke the pool, or refuse a closed one."""
        if self._broken is not None:
            raise self._broken
        if self._closed:
            raise RuntimeError("pool is closed")

    def submit(self, slot: int, fn, /, *args):
        """Run ``fn(*args)`` on a slot (inline under the serial policy).

        Returns a future; calls submitted to the same slot execute in order,
        in the same process.  If the slot's worker has died, raises
        :class:`WorkerPoolBrokenError` naming the slot (and closes the pool)
        instead of the executor's bare :class:`BrokenExecutor`.
        """
        self._check_open()
        slot %= self.worker_count
        if self.executor == "serial":
            future: Future = Future()
            try:
                future.set_result(fn(*args))
            except BaseException as exc:  # surfaced via .result(), like a Future
                future.set_exception(exc)
            return future
        try:
            future = self._slot_executor(slot).submit(fn, *args)
        except BrokenExecutor as exc:
            raise self._mark_broken(slot, exc) from exc
        return _SlotFuture(self, slot, future)

    def submit_shipment(self, slot: int, fn, shipment, /, *args):
        """Run ``fn(shipment, *args)`` on a slot, shipping ``shipment`` (an
        offline solve's :class:`MarketShard` or a stream batch's
        ``(shard_id, tasks)``) over the pool's transport.

        A closed or broken pool refuses before anything is shipped or
        counted.  An inline slot is handed the objects as they are; a
        process slot gets them flattened and pickled.  On shm transport the
        columns are copied into a segment and only the descriptor is
        pickled, and the segment is recycled when the returned future
        completes (same slot, submission order — see the transport module's
        correctness model).  Any shipping failure falls back to the pickle
        path for that shipment and is counted in ``stats.pickle_fallbacks``,
        so a degraded environment degrades throughput, never correctness.
        """
        self._check_open()
        if self.executor != "process":
            return self.submit(slot, fn, shipment, *args)
        # The one place a shard record is flattened: only a pipe needs it.
        if isinstance(shipment, MarketShard):
            shipment = payload_from_shard(shipment)
        else:
            shipment = delta_from_tasks(*shipment)
        fallback = False
        if self.shm_active:
            try:
                shipper = self.shipper
                desc = shipper.ship_delta(shipment)
            except (OSError, RuntimeError, ValueError) as exc:
                logger.warning(
                    "shm shipment failed for shard %d, falling back to pickle: %s",
                    shipment.shard_id, exc,
                )
                fallback = True
            else:
                future = self.submit(slot, fn, desc, *args)
                future.add_done_callback(lambda _f: shipper.release(desc.segment))
                return future
        self.stats.record_pickle(
            shipment.shard_id, delta_wire_bytes(shipment), fallback=fallback
        )
        return self.submit(slot, fn, shipment, *args)

    def close(self, cancel_pending: bool = True) -> None:
        """Shut every slot executor down (idempotent).

        ``cancel_pending`` (default) drops work that is queued but not yet
        running, so teardown — a Ctrl-C, an error-path ``with`` exit, a
        broken-worker shutdown — returns as soon as the in-flight call
        finishes instead of draining the whole backlog first.  Pass
        ``cancel_pending=False`` to wait for every queued call (only sound
        when the caller has already collected all its futures).
        """
        self._closed = True
        slots, self._slots = self._slots, [None] * self.worker_count
        for pool in slots:
            if pool is not None:
                pool.shutdown(wait=True, cancel_futures=cancel_pending)
        # After the workers are gone nothing can be reading the segments, so
        # unlink them all — every teardown path (context exit, SIGINT unwind,
        # broken-worker shutdown) funnels through here and leaves /dev/shm
        # clean.
        if self._shipper is not None:
            self._shipper.close()
        # Workers are gone, so the relay queue can't receive more records;
        # drain and stop the listener, then drop the queue's feeder thread.
        if self._log_listener is not None:
            self._log_listener.stop()
            self._log_listener = None
        if self._log_queue is not None:
            self._log_queue.close()
            self._log_queue.cancel_join_thread()
            self._log_queue = None
        logger.debug("pool closed: executor=%s", self.executor)

    def __enter__(self) -> "PersistentWorkerPool":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
