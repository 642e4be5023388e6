"""Cross-cutting observability: flight-recorder tracing, metrics, exposition.

Every layer below the service is timing-sensitive — candidate kernels,
per-window Hungarian solves, LP tiers, shm transport, merges — and every
layer above it wants to know where the time went.  This package is the one
place both meet:

:mod:`~repro.obs.trace`
    A span-based flight recorder on the monotonic clock.  Spans carry a
    name, parent, and small attribute tuples; worker-side spans are
    collected inside slot workers and shipped back as plain tuples on the
    existing result wire, then stitched into one cross-process tree per
    solve / stream / epoch.  Disabled (the default) it is a no-op.

:mod:`~repro.obs.registry`
    Counters / gauges / fixed-bucket histograms with bounded memory (each
    histogram also keeps a seeded reservoir for its percentile summary).
    The service records into them directly, and a scrape-time collector
    reads each pool's :class:`~repro.distributed.transport.TransportStats`,
    so the service, the coordinator, and the benchmarks all read one schema.

:mod:`~repro.obs.export`
    Chrome trace-event JSON (loadable in Perfetto / ``chrome://tracing``),
    Prometheus text exposition, and the tiny asyncio HTTP endpoint behind
    ``repro serve --metrics-port``.

:mod:`~repro.obs.logs`
    Structured ``logging`` configuration (``--log-level`` / ``REPRO_LOG``)
    with worker-process records relayed to the parent through the pool.

**Parity contract 19 (traced == untraced):** enabling tracing only ever
reads clocks and appends to buffers — it never feeds back into dispatch
arithmetic, so merges, reports, and wait totals are bit-identical with
tracing on or off, across the serial and process executors and the shm
transport.  Pinned by ``tests/distributed/test_obs_parity.py``.
"""

from .logs import configure_logging, configured_level, resolve_level
from .registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    bind_transport_stats,
)
from .trace import (
    PHASE_NAMES,
    TraceRecorder,
    active_recorder,
    disable_tracing,
    enable_tracing,
    phase_of,
    phase_totals,
    span,
    tracing_enabled,
)
from .export import (
    chrome_trace_events,
    render_prometheus,
    start_http_server,
    write_chrome_trace,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "PHASE_NAMES",
    "TraceRecorder",
    "active_recorder",
    "bind_transport_stats",
    "chrome_trace_events",
    "configure_logging",
    "configured_level",
    "disable_tracing",
    "enable_tracing",
    "phase_of",
    "phase_totals",
    "render_prometheus",
    "resolve_level",
    "span",
    "start_http_server",
    "tracing_enabled",
    "write_chrome_trace",
]
