"""The asyncio ingestion gateway over per-city streaming coordinators.

:class:`DispatchService` is the long-running front door of the dispatch
engine: orders enter one at a time on an in-process ``asyncio.Queue``, are
cut into publish-ordered batches per city by a
:class:`~repro.service.batcher.WindowBatcher`, and are shipped to that
city's :class:`~repro.distributed.stream.DistributedStreamSession` —
one coordinator + one persistent worker pool per city, all behind a single
gateway (multi-city tenancy).  Because ``append_batch`` returns its
in-flight :class:`~repro.distributed.stream.PendingAppend` handles, the
event loop overlaps its own work (ingesting the next window, serving
:meth:`DispatchService.health` probes) with the workers' Hungarian window
solves, and only *awaits* them at a backpressure barrier, an epoch rotation,
or the final merge.

Metrics
-------

The service owns one :class:`~repro.obs.registry.MetricsRegistry`;
``register_city`` registers the city's instruments in it once and the
gateway bumps them in place, so ``health()`` and ``/metrics`` read the same
objects.

Latency accounting
------------------

Every submitted order gets an :class:`~repro.service.events.OrderReceipt`
stamped at enqueue.  When the batch carrying the order is shipped, a
:class:`_BatchTracker` subscribes to the batch's pending appends; the moment
the last one resolves, every receipt in the batch is stamped complete.  The
recorded end-to-end dispatch latency is therefore queue wait + batching wait
+ routing + worker append — the number an operator would measure from the
outside.

Backpressure
------------

After each ship the gateway reads the session's per-shard window-queue
depths (:meth:`DistributedStreamSession.pending_counts`); when the deepest
shard reaches ``backpressure_depth`` the gateway stops ingesting and awaits
the in-flight appends (:meth:`DistributedStreamSession.wait_pending`)
before accepting more work.  Under the serial policy appends complete
inline, so the barrier never triggers.

Parity contract 15 (service == replay)
--------------------------------------

With ``record_batches=True`` (the default) the gateway keeps every shipped
batch, per city per epoch.  :func:`replay_ingested` replays one epoch's
recorded batches through a fresh **serial** coordinator over the same
partition; the result is bit-identical to the service's own merged outcome
for that epoch.  The service may only ever add scheduling around the engine
— never a different dispatch decision.
"""

from __future__ import annotations

import asyncio
import logging
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..obs import trace as obs_trace
from ..obs.registry import MetricsRegistry, bind_transport_stats
from ..distributed import (
    DistributedCoordinator,
    DistributedResult,
    DistributedStreamSession,
    PendingAppend,
    SpatialPartitioner,
)
from ..geo import PORTO, BoundingBox
from ..market.cost import MarketCostModel
from ..market.driver import Driver
from ..market.instance import MarketInstance
from ..market.task import Task
from ..online.batch import BatchConfig
from .batcher import WindowBatcher
from .events import OrderEvent, OrderReceipt
from .metrics import CityMetrics

logger = logging.getLogger("repro.service.gateway")


class _BatchTracker:
    """Completion barrier for one shipped batch's pending appends.

    Callbacks fire on the slots' reader threads, so the countdown is
    lock-guarded; when the last append resolves cleanly the tracker stamps
    every receipt in the batch and records their dispatch latencies.  A failed append
    leaves the receipts incomplete — the error itself surfaces through the
    session on the next append/finish, not here.
    """

    __slots__ = ("_receipts", "_metrics", "_ship_s", "_remaining", "_failed", "_lock")

    def __init__(
        self,
        receipts: Sequence[OrderReceipt],
        metrics: CityMetrics,
        ship_s: float,
        remaining: int,
    ) -> None:
        self._receipts = receipts
        self._metrics = metrics
        self._ship_s = ship_s
        self._remaining = remaining
        self._failed = False
        self._lock = threading.Lock()
        if remaining == 0:
            # Batch routed entirely to driverless shards (or serial policy
            # with nothing to ship): dispatched the moment it was cut.
            self._complete(time.perf_counter())

    def resolve(self, pending: PendingAppend) -> None:
        """Mark one pending append resolved (call when its future is done)."""
        now = time.perf_counter()
        exc: Optional[BaseException]
        try:
            exc = pending.future.exception()
        except BaseException as cancelled:  # cancelled futures on teardown
            exc = cancelled
        if exc is None:
            self._metrics.record_append(pending.shard_id, now - self._ship_s)
        with self._lock:
            if exc is not None:
                self._failed = True
            self._remaining -= 1
            if self._remaining == 0 and not self._failed:
                self._complete(now)

    def _complete(self, now: float) -> None:
        for receipt in self._receipts:
            receipt.completed_s = now
            self._metrics.dispatch.observe(now - receipt.submitted_s)


@dataclass
class CityRuntime:
    """One tenant city: its coordinator, live stream, batcher and metrics."""

    name: str
    coordinator: DistributedCoordinator
    drivers: Tuple[Driver, ...]
    cost_model: MarketCostModel
    config: BatchConfig
    region: BoundingBox
    rows: int
    cols: int
    max_batch: Optional[int]
    session: DistributedStreamSession
    batcher: WindowBatcher
    metrics: CityMetrics
    #: Shipped batches, per epoch — the parity contract's replay input.
    recorded: List[List[Tuple[Task, ...]]] = field(default_factory=list)
    #: Finished epochs' merged results, in rotation order.
    results: List[DistributedResult] = field(default_factory=list)
    #: Receipts of orders accumulated in the batcher's open batch.
    open_receipts: List[OrderReceipt] = field(default_factory=list)

    def fresh_epoch(self) -> None:
        self.session = self.coordinator.open_stream(
            self.drivers, self.cost_model, config=self.config
        )
        self.batcher = WindowBatcher(self.config.window_s, self.max_batch)
        self.recorded.append([])


class DispatchService:
    """Asyncio ingestion gateway over per-city streaming coordinators.

    Use as an async context manager::

        async with DispatchService() as service:
            service.register_city("porto", drivers)
            for task in orders:
                receipt = await service.submit("porto", task)
            results = await service.finish()

    ``__aexit__`` tears everything down even on error: open streams are
    closed (worker-side sessions discarded) and every city's pool is shut
    down with queued work cancelled — the service can never leak sessions
    or orphan worker processes.
    """

    def __init__(
        self,
        *,
        backpressure_depth: int = 8,
        queue_size: int = 10_000,
        record_batches: bool = True,
    ) -> None:
        if backpressure_depth < 1:
            raise ValueError("backpressure_depth must be >= 1")
        self.backpressure_depth = backpressure_depth
        self.record_batches = record_batches
        self._queue: asyncio.Queue[OrderEvent] = asyncio.Queue(maxsize=queue_size)
        self._cities: Dict[str, CityRuntime] = {}
        self._ingest_task: Optional[asyncio.Task] = None
        self._failure: Optional[BaseException] = None
        self._shutdown = False
        self._registry = MetricsRegistry()
        self._city_gauge = self._registry.gauge(
            "repro_cities", "Tenant cities registered on the gateway."
        )
        queue_gauge = self._registry.gauge(
            "repro_ingest_queue_depth", "Orders waiting in the ingestion queue."
        )
        self._registry.register_collector(
            lambda _reg: queue_gauge.set(self._queue.qsize())
        )

    # ------------------------------------------------------------------
    # tenancy
    # ------------------------------------------------------------------
    def register_city(
        self,
        name: str,
        drivers: Sequence[Driver],
        *,
        cost_model: Optional[MarketCostModel] = None,
        region: BoundingBox = PORTO,
        rows: int = 2,
        cols: int = 2,
        executor: str = "serial",
        workers: Optional[int] = None,
        config: Optional[BatchConfig] = None,
        max_batch: Optional[int] = None,
        transport: str = "pickle",
    ) -> CityRuntime:
        """Add a tenant: its own coordinator + persistent pool + stream.

        ``transport`` configures the city's pool wire format (see
        :class:`~repro.distributed.DistributedCoordinator`); the service
        outcome is transport-independent (parity contract 16), only the wire
        metrics in :meth:`health` change.
        """
        if name in self._cities:
            raise ValueError(f"city {name!r} is already registered")
        if self._shutdown:
            raise RuntimeError("service is shut down")
        coordinator = DistributedCoordinator(
            SpatialPartitioner(region, rows, cols),
            executor=executor,
            max_workers=workers,
            transport=transport,
        )
        chosen = config or BatchConfig()
        runtime = CityRuntime(
            name=name,
            coordinator=coordinator,
            drivers=tuple(drivers),
            cost_model=cost_model or MarketCostModel(),
            config=chosen,
            region=region,
            rows=rows,
            cols=cols,
            max_batch=max_batch,
            session=None,  # type: ignore[arg-type]  # set by fresh_epoch below
            batcher=None,  # type: ignore[arg-type]
            metrics=CityMetrics(self._registry, name),
        )
        runtime.fresh_epoch()
        self._cities[name] = runtime
        self._city_gauge.set(len(self._cities))
        stats = coordinator.stream_pool().stats
        bind_transport_stats(
            self._registry, stats, city=name, transport=stats.transport
        )
        logger.info(
            "registered city %s: %d drivers, %dx%d grid, %s executor",
            name, len(runtime.drivers), rows, cols, executor,
        )
        return runtime

    def _city(self, name: str) -> CityRuntime:
        try:
            return self._cities[name]
        except KeyError:
            raise KeyError(f"unknown city {name!r}; registered: {sorted(self._cities)}")

    def runtimes(self) -> Dict[str, CityRuntime]:
        """The per-city runtimes (for replay verification and reporting)."""
        return dict(self._cities)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the ingest loop (requires a running event loop; idempotent)."""
        if self._shutdown:
            raise RuntimeError("service is shut down")
        if self._ingest_task is None or self._ingest_task.done():
            self._ingest_task = asyncio.get_running_loop().create_task(
                self._ingest_loop(), name="dispatch-service-ingest"
            )

    async def __aenter__(self) -> "DispatchService":
        self.start()
        return self

    async def __aexit__(self, *_exc) -> None:
        await self.aclose()

    def shutdown(self) -> None:
        """Synchronous teardown: close streams, shut pools down (idempotent).

        Deliberately contains **no** awaits, so it runs to completion even
        inside a cancelled task's ``__aexit__`` (Ctrl-C path): worker-side
        sessions are discarded and every pool's queued work is cancelled
        before the first suspension point could be interrupted.
        """
        if self._shutdown:
            return
        self._shutdown = True
        if self._ingest_task is not None:
            self._ingest_task.cancel()
        for runtime in self._cities.values():
            try:
                runtime.session.close()
            except BaseException:
                pass
            try:
                runtime.coordinator.close()
            except BaseException:
                pass

    async def aclose(self) -> None:
        """Tear the service down and reap the ingest task."""
        self.shutdown()
        task, self._ingest_task = self._ingest_task, None
        if task is not None:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------
    async def submit(self, city: str, task: Task) -> OrderReceipt:
        """Enqueue one order event; returns its receipt immediately.

        Awaits only when the ingestion queue itself is full (input-side
        backpressure, distinct from the shard window-queue barrier).
        """
        self._check_usable()
        self._city(city)  # fail fast on unknown tenants
        receipt = OrderReceipt(
            city=city, task_id=task.task_id, submitted_s=time.perf_counter()
        )
        await self._queue.put(OrderEvent(city=city, task=task, receipt=receipt))
        return receipt

    async def _ingest_loop(self) -> None:
        while True:
            event = await self._queue.get()
            try:
                if self._failure is None:
                    await self._ingest(event)
            except asyncio.CancelledError:
                raise
            except BaseException as exc:
                # Poison the service but keep consuming (and discarding) so
                # queue.join() in finish()/rotate() can still complete and
                # surface the failure to the caller.
                self._failure = exc
            finally:
                self._queue.task_done()

    async def _ingest(self, event: OrderEvent) -> None:
        runtime = self._city(event.city)
        runtime.open_receipts.append(event.receipt)
        batch = runtime.batcher.push(event.task)
        runtime.metrics.orders.inc()
        if batch is not None:
            await self._ship(runtime, batch)

    async def _ship(self, runtime: CityRuntime, batch: Tuple[Task, ...]) -> None:
        receipts = runtime.open_receipts[: len(batch)]
        del runtime.open_receipts[: len(batch)]
        ship_s = time.perf_counter()
        with obs_trace.span("gateway:ship", city=runtime.name, batch_size=len(batch)):
            shipped = runtime.session.append_batch(batch)
        runtime.metrics.batches.inc()
        if self.record_batches:
            runtime.recorded[-1].append(batch)
        tracker = _BatchTracker(
            receipts, runtime.metrics, ship_s, remaining=len(shipped)
        )
        for pending in shipped:
            # A done future (every serial append) fires the callback at once.
            pending.future.add_done_callback(lambda _f, p=pending: tracker.resolve(p))
        depths = runtime.session.pending_counts()
        if depths and max(depths.values()) >= self.backpressure_depth:
            runtime.metrics.backpressure_events.inc()
            logger.debug(
                "backpressure barrier for %s: deepest shard queue %d >= %d",
                runtime.name, max(depths.values()), self.backpressure_depth,
            )
            await runtime.session.wait_pending()

    async def _drain(self) -> None:
        """Wait until every enqueued event has been consumed, then surface
        any ingestion failure."""
        await self._queue.join()
        if self._failure is not None:
            raise RuntimeError("dispatch service ingestion failed") from self._failure

    def _check_usable(self) -> None:
        if self._shutdown:
            raise RuntimeError("service is shut down")
        if self._failure is not None:
            raise RuntimeError("dispatch service ingestion failed") from self._failure
        if self._ingest_task is None:
            raise RuntimeError("service not started — use 'async with' or start()")

    # ------------------------------------------------------------------
    # epochs and the final merge
    # ------------------------------------------------------------------
    async def _close_epoch(self, runtime: CityRuntime) -> DistributedResult:
        """Flush, drain the shard queues and merge the city's open epoch."""
        final = runtime.batcher.flush()
        if final is not None:
            await self._ship(runtime, final)
        await runtime.session.wait_pending()
        # ``finish`` blocks on the workers' final windows; run it off-loop so
        # health probes (and other cities' ingestion) stay responsive.
        result = await asyncio.get_running_loop().run_in_executor(
            None, runtime.session.finish
        )
        runtime.results.append(result)
        runtime.metrics.finish_epoch(
            result.report.served_count, result.solution.instance.task_count
        )
        return result

    async def rotate(self, city: str) -> DistributedResult:
        """Close the city's current epoch and open a fresh stream on the same
        warm pool — the day-rollover operation.  Returns the epoch's merged
        result."""
        self._check_usable()
        await self._drain()
        runtime = self._city(city)
        result = await self._close_epoch(runtime)
        runtime.fresh_epoch()
        return result

    async def finish(self) -> Dict[str, DistributedResult]:
        """Drain the queue, close every city's open epoch and return the
        final per-city merged results.  The service stays up (health keeps
        answering) until ``aclose``/``__aexit__``."""
        self._check_usable()
        await self._drain()
        results: Dict[str, DistributedResult] = {}
        for name, runtime in self._cities.items():
            results[name] = await self._close_epoch(runtime)
        return results

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def metrics_registry(self) -> MetricsRegistry:
        """The service's live :class:`~repro.obs.registry.MetricsRegistry`.

        Every registered city's instruments carry a ``city`` label and its
        pool's transport counters ``city`` + ``transport`` labels, beside
        service-level gauges for the ingestion queue depth and tenant count.
        The same object on every call: a city registered later appears in
        the next scrape.
        """
        return self._registry

    def health(self) -> Dict[str, object]:
        """A JSON-serialisable snapshot: queue depth, per-city counters,
        per-shard window-queue depths and latency percentiles."""
        if self._failure is not None:
            status = "failed"
        elif self._shutdown:
            status = "shutdown"
        else:
            status = "ok"
        cities: Dict[str, object] = {}
        for name, runtime in self._cities.items():
            block = runtime.metrics.snapshot()
            depths = (
                {} if runtime.session.closed else runtime.session.pending_counts()
            )
            block["shard_queue_depth"] = {str(k): v for k, v in sorted(depths.items())}
            block["open_orders"] = runtime.batcher.pending
            # Wire-transport counters of the city's pool: bytes over the
            # executor pipes (per shard too), segment reuse, fallbacks.
            pool = runtime.coordinator.current_pool
            if pool is not None:
                transport = pool.stats.snapshot()
                transport["shard_bytes"] = {
                    str(k): v for k, v in transport["shard_bytes"].items()
                }
                block["transport"] = transport
            cities[name] = block
        return {
            "status": status,
            "ingest_queue_depth": self._queue.qsize(),
            "cities": cities,
        }


def replay_ingested(
    runtime: CityRuntime, epoch: int = 0
) -> DistributedResult:
    """Parity contract 15's reference: replay one epoch's recorded batches
    through a fresh **serial** coordinator over the same partition.

    The replayed merged outcome must be bit-identical to the service's own
    result for that epoch (``runtime.results[epoch]``) — the service adds
    queueing, batching and backpressure around the engine, never a different
    dispatch decision.  Requires the service to run with
    ``record_batches=True`` (the default).
    """
    batches = runtime.recorded[epoch]
    tasks = tuple(task for batch in batches for task in batch)
    instance = MarketInstance(
        drivers=runtime.drivers, tasks=tasks, cost_model=runtime.cost_model
    )
    with DistributedCoordinator(
        SpatialPartitioner(runtime.region, runtime.rows, runtime.cols),
        executor="serial",
    ) as coordinator:
        return coordinator.solve_stream(
            instance, list(batches), config=runtime.config
        )
