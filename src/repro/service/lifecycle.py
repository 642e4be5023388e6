"""Soak harness: multi-city, multi-epoch synthetic order floods.

The service's scaling story is *epochal*: the task network a streaming
instance maintains grows with every order, so a single endless stream would
cost O(M²) over its life.  Real dispatch days roll over — the soak models
that with epochs: each city's stream is rotated (finished and reopened on
the same warm pool) every ``orders_per_epoch`` orders, which bounds the
per-stream task count while the pools, coordinators and the gateway itself
stay up for the whole soak.  ~1M orders therefore means *many small merges*
on *one* long-running service — exactly the regime the ISSUE's benchmark
(`benchmarks/bench_service_soak.py`, ``BENCH_service_soak.json``) measures.

Order synthesis is NumPy-vectorised (uniform sources/destinations in the
city box, publish times sorted over the epoch span, deadline and price
columns derived in bulk) so generating a million orders costs seconds, not
minutes — the soak's wall clock must measure the service, not the generator.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..distributed import DistributedResult
from ..geo import PORTO, BoundingBox, GeoPoint
from ..market.driver import Driver
from ..market.task import Task
from ..obs.registry import Histogram
from ..online.batch import BatchConfig
from .events import OrderReceipt
from .gateway import DispatchService, replay_ingested


@dataclass(frozen=True)
class SoakConfig:
    """Knobs of one soak run (the benchmark and ``repro serve`` build these)."""

    #: Total orders across all cities and epochs.
    orders: int = 100_000
    cities: int = 2
    epochs: int = 4
    drivers_per_city: int = 24
    #: Dispatch-window length fed to both the batcher and the streams.
    window_s: float = 120.0
    #: Wall-clock span the orders of one epoch are published over.
    epoch_span_s: float = 14_400.0
    rows: int = 2
    cols: int = 2
    executor: str = "serial"
    workers: Optional[int] = None
    #: Pool wire format per city ("pickle" or "shm"; shm engages on the
    #: process executor) — the soak outcome is transport-independent
    #: (parity contract 16).
    transport: str = "pickle"
    backpressure_depth: int = 8
    max_batch: Optional[int] = 512
    seed: int = 2017
    region: BoundingBox = PORTO
    #: Epochs (per city) to verify against the offline replay: ``None``
    #: checks every epoch, an int checks that many from the front.  The full
    #: soak samples to keep parity from doubling its wall clock; the smoke
    #: checks everything.
    parity_epochs: Optional[int] = 1
    #: When set, serve Prometheus ``/metrics`` + JSON ``/health`` on
    #: ``127.0.0.1:<port>`` for the duration of the soak (0 = ephemeral).
    metrics_port: Optional[int] = None

    @property
    def orders_per_epoch(self) -> int:
        return max(1, self.orders // (self.cities * self.epochs))


@dataclass
class SoakReport:
    """Everything the soak measured, JSON-ready via :meth:`to_payload`."""

    config: SoakConfig
    orders_submitted: int = 0
    orders_served: int = 0
    wall_clock_s: float = 0.0
    generate_s: float = 0.0
    dispatch: Histogram = field(default_factory=Histogram)
    #: city -> epoch results, in rotation order.
    results: Dict[str, List[DistributedResult]] = field(default_factory=dict)
    health: Dict[str, object] = field(default_factory=dict)
    parity_checked: int = 0
    parity_ok: bool = True

    @property
    def serve_rate(self) -> float:
        return self.orders_served / self.orders_submitted if self.orders_submitted else 0.0

    @property
    def orders_per_second(self) -> float:
        return self.orders_submitted / self.wall_clock_s if self.wall_clock_s else 0.0

    def to_payload(self) -> Dict[str, object]:
        cfg = self.config
        return {
            "orders": self.orders_submitted,
            "cities": cfg.cities,
            "epochs": cfg.epochs,
            "orders_per_epoch": cfg.orders_per_epoch,
            "executor": cfg.executor,
            "workers": cfg.workers,
            "grid": f"{cfg.rows}x{cfg.cols}",
            "window_s": cfg.window_s,
            "max_batch": cfg.max_batch,
            "backpressure_depth": cfg.backpressure_depth,
            "seed": cfg.seed,
            "wall_clock_s": round(self.wall_clock_s, 3),
            "generate_s": round(self.generate_s, 3),
            "orders_per_second": round(self.orders_per_second, 1),
            "serve_rate": round(self.serve_rate, 4),
            "dispatch_latency": self.dispatch.summary(),
            "parity_checked_epochs": self.parity_checked,
            "parity_ok": self.parity_ok,
            "health": self.health,
        }


def _city_fleet(
    city: str, count: int, box: BoundingBox, span_s: float, rng: np.random.Generator
) -> Tuple[Driver, ...]:
    """A synthetic all-day fleet spread uniformly over the city box."""
    lats = rng.uniform(box.south, box.north, size=(count, 2))
    lons = rng.uniform(box.west, box.east, size=(count, 2))
    return tuple(
        Driver(
            driver_id=f"{city}-d{i}",
            source=GeoPoint(float(lats[i, 0]), float(lons[i, 0])),
            destination=GeoPoint(float(lats[i, 1]), float(lons[i, 1])),
            start_ts=0.0,
            end_ts=span_s + 7200.0,
        )
        for i in range(count)
    )


def _epoch_orders(
    city: str,
    epoch: int,
    count: int,
    box: BoundingBox,
    span_s: float,
    rng: np.random.Generator,
) -> List[Task]:
    """One epoch's publish-ordered synthetic orders, built column-wise."""
    publish = np.sort(rng.uniform(0.0, span_s, size=count))
    src_lat = rng.uniform(box.south, box.north, size=count)
    src_lon = rng.uniform(box.west, box.east, size=count)
    dst_lat = rng.uniform(box.south, box.north, size=count)
    dst_lon = rng.uniform(box.west, box.east, size=count)
    start_slack = rng.uniform(300.0, 900.0, size=count)
    ride_span = rng.uniform(600.0, 1800.0, size=count)
    price = rng.uniform(4.0, 20.0, size=count)
    return [
        Task(
            task_id=f"{city}-e{epoch}-t{i}",
            publish_ts=float(publish[i]),
            source=GeoPoint(float(src_lat[i]), float(src_lon[i])),
            destination=GeoPoint(float(dst_lat[i]), float(dst_lon[i])),
            start_deadline_ts=float(publish[i] + start_slack[i]),
            end_deadline_ts=float(publish[i] + start_slack[i] + ride_span[i]),
            price=float(price[i]),
        )
        for i in range(count)
    ]


def synthesize_city_orders(
    config: SoakConfig,
) -> Tuple[Dict[str, Tuple[Driver, ...]], Dict[str, List[List[Task]]]]:
    """All fleets and all epochs of orders for a soak, deterministically.

    Returns ``(fleets, orders)`` with ``orders[city][epoch]`` a
    publish-ordered list — the whole synthesis is derived from
    ``config.seed``, so a soak is bit-reproducible end to end.
    """
    rng = np.random.default_rng(config.seed)
    fleets: Dict[str, Tuple[Driver, ...]] = {}
    orders: Dict[str, List[List[Task]]] = {}
    for c in range(config.cities):
        city = f"city{c}"
        fleets[city] = _city_fleet(
            city, config.drivers_per_city, config.region, config.epoch_span_s, rng
        )
        orders[city] = [
            _epoch_orders(
                city, epoch, config.orders_per_epoch, config.region,
                config.epoch_span_s, rng,
            )
            for epoch in range(config.epochs)
        ]
    return fleets, orders


async def _soak(
    config: SoakConfig, service: DispatchService, on_ready=None
) -> SoakReport:
    report = SoakReport(config=config)
    gen_start = time.perf_counter()
    fleets, orders = synthesize_city_orders(config)
    report.generate_s = time.perf_counter() - gen_start

    for city, fleet in fleets.items():
        service.register_city(
            city,
            fleet,
            region=config.region,
            rows=config.rows,
            cols=config.cols,
            executor=config.executor,
            workers=config.workers,
            config=BatchConfig(window_s=config.window_s),
            max_batch=config.max_batch,
            transport=config.transport,
        )
    if on_ready is not None:
        # ``repro serve`` announces readiness (and its worker pids) here —
        # the SIGINT regression test keys on that marker.
        on_ready(service)

    receipts: List[OrderReceipt] = []
    soak_start = time.perf_counter()
    for epoch in range(config.epochs):
        # Interleave cities within the epoch, exercising multi-tenancy on
        # every scheduling boundary rather than city after city.
        for city in fleets:
            for task in orders[city][epoch]:
                receipts.append(await service.submit(city, task))
            report.orders_submitted += len(orders[city][epoch])
        if epoch < config.epochs - 1:
            for city in fleets:
                await service.rotate(city)
    finals = await service.finish()
    report.wall_clock_s = time.perf_counter() - soak_start
    report.health = service.health()

    for city, runtime in service.runtimes().items():
        report.results[city] = list(runtime.results)
        report.orders_served += sum(
            r.report.served_count for r in runtime.results
        )
        check = (
            len(runtime.results)
            if config.parity_epochs is None
            else min(config.parity_epochs, len(runtime.results))
        )
        for epoch in range(check):
            replayed = replay_ingested(runtime, epoch)
            served = runtime.results[epoch]
            report.parity_checked += 1
            # Whole plans, arrival times included: every kernel commit sets
            # one, so no NaN defeats the comparison.
            if (
                served.solution.plans != replayed.solution.plans
                or served.rejected_tasks != replayed.rejected_tasks
            ):
                report.parity_ok = False
    for receipt in receipts:
        if receipt.latency_s is not None:
            report.dispatch.observe(receipt.latency_s)
    del finals  # per-city final results also live in report.results
    return report


async def _run_soak_async(config: SoakConfig, on_ready=None) -> SoakReport:
    async with DispatchService(
        backpressure_depth=config.backpressure_depth
    ) as service:
        server = None
        if config.metrics_port is not None:
            from ..obs import start_http_server

            server = await start_http_server(
                service.metrics_registry,
                health_fn=service.health,
                port=config.metrics_port,
            )
        try:
            return await _soak(config, service, on_ready)
        finally:
            if server is not None:
                server.close()
                await server.wait_closed()


def run_soak(config: SoakConfig, on_ready=None) -> SoakReport:
    """Run one soak start to finish (creates and owns the event loop).

    ``on_ready(service)`` is called once every city is registered and the
    worker pools are warm — before the first order is submitted.  Teardown
    is unconditional: the service's ``__aexit__`` closes every stream and
    pool even when the soak is interrupted mid-flood.
    """
    return asyncio.run(_run_soak_async(config, on_ready))
