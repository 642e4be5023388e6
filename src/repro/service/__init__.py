"""Live dispatch service over the streaming coordinator.

The engine below this package is batch-shaped: open a stream, append
publish-ordered batches, merge.  A *service* is order-shaped — rides arrive
one at a time, continuously, for many cities at once, and the operator wants
latency numbers and a health endpoint, not a merged solution object.  This
package is that shape: an asyncio ingestion gateway
(:class:`~repro.service.gateway.DispatchService`) that accepts single order
events on an in-process queue, cuts them into publish-ordered batches per
city (:class:`~repro.service.batcher.WindowBatcher`), ships each batch to
that city's :class:`~repro.distributed.stream.DistributedStreamSession`
on its own persistent worker pool, and records per-order end-to-end
dispatch latency and per-city counters into the service's one metrics
registry (:mod:`~repro.service.metrics`) while applying backpressure when a
shard's window queue runs deep.

**Parity contract 15 (service == replay):** the gateway records every batch
it ships, and replaying those recorded batches through a fresh serial
``DistributedCoordinator.solve_stream`` reproduces the service's merged
outcome bit-for-bit (:func:`~repro.service.gateway.replay_ingested`).  The
service adds scheduling, queueing and backpressure *around* the engine —
never a different dispatch decision.

:mod:`~repro.service.lifecycle` drives soaks: multi-city, multi-epoch
synthetic order floods (``repro serve`` and
``benchmarks/bench_service_soak.py`` are thin wrappers around it).
"""

from .batcher import WindowBatcher
from .events import OrderEvent, OrderReceipt
from .gateway import CityRuntime, DispatchService, replay_ingested
from .lifecycle import SoakConfig, SoakReport, run_soak, synthesize_city_orders
from .metrics import CityMetrics

__all__ = [
    "CityMetrics",
    "CityRuntime",
    "DispatchService",
    "OrderEvent",
    "OrderReceipt",
    "SoakConfig",
    "SoakReport",
    "WindowBatcher",
    "replay_ingested",
    "run_soak",
    "synthesize_city_orders",
]
