"""Parity contract 19: the flight recorder never changes a dispatch outcome.

Tracing only reads clocks and appends to span buffers — the merged solution,
per-plan profits, rejected tasks and every report column except the trace
ones must be bit-identical between a traced and an untraced run, under every
executor policy and on the shm transport.  The disabled path must also stay
a true no-op (module-level ``span()`` returns a shared null object).
"""

import pytest

from repro.distributed import DistributedCoordinator, SpatialPartitioner
from repro.geo import PORTO
from repro.obs import trace as obs_trace
from repro.online.batch import BatchConfig, window_batches

from ..conftest import build_random_instance

EXECUTORS = ("serial", "process")
WINDOW_S = 600.0


@pytest.fixture(scope="module")
def instance():
    return build_random_instance(task_count=60, driver_count=15, seed=41)


@pytest.fixture(autouse=True)
def _no_leaked_recorder():
    obs_trace.disable_tracing()
    yield
    obs_trace.disable_tracing()


def stream_fingerprint(result):
    """Everything the contract pins (excludes the trace-only report fields)."""
    return (
        result.solution.plans,
        result.solution.rejected_tasks,
        result.rejected_tasks,
        result.report.total_value,
        result.report.served_count,
        result.report.per_shard_task_counts,
    )


def solve_fingerprint(result):
    return (
        result.solution.plans,
        result.report.total_value,
        result.report.served_count,
    )


def _run_stream(instance, executor, transport="pickle", traced=False):
    recorder = obs_trace.enable_tracing() if traced else None
    try:
        with DistributedCoordinator(
            SpatialPartitioner(PORTO, 2, 2),
            executor=executor,
            transport=transport,
        ) as coordinator:
            result = coordinator.solve_stream(
                instance, config=BatchConfig(window_s=WINDOW_S)
            )
    finally:
        obs_trace.disable_tracing()
    return result, recorder


@pytest.mark.parametrize("executor", EXECUTORS)
def test_traced_stream_is_bit_identical(instance, executor):
    untraced, _ = _run_stream(instance, executor)
    traced, recorder = _run_stream(instance, executor, traced=True)
    assert stream_fingerprint(traced) == stream_fingerprint(untraced)
    assert len(recorder.export()) > 0


@pytest.mark.parametrize("executor", EXECUTORS)
def test_traced_stream_has_worker_spans_for_every_shard(instance, executor):
    result, recorder = _run_stream(instance, executor, traced=True)
    spans = recorder.export()
    shard_roots = [s for s in spans if s[2] == "shard_stream"]
    # One shard_stream root per opened shard session.
    assert len(shard_roots) == len(result.report.per_shard_task_counts)
    shards_seen = {
        value for s in shard_roots for key, value in s[5] if key == "shard"
    }
    assert len(shards_seen) == len(shard_roots)  # distinct shard ids
    # Every shard recorded hot-path leaf spans, stitched under its root.
    names = {s[2] for s in spans}
    assert {"stream", "append", "candidates", "merge"} <= names


def test_traced_stream_report_carries_phase_breakdown(instance):
    result, _ = _run_stream(instance, "process", traced=True)
    breakdown = dict(result.report.phase_breakdown)
    assert set(breakdown) == set(obs_trace.PHASE_NAMES)
    assert breakdown["candidates"] > 0.0
    assert result.report.trace_span_count > 0
    assert result.report.phase_seconds == breakdown


def test_untraced_stream_report_has_empty_trace_fields(instance):
    result, _ = _run_stream(instance, "serial")
    assert result.report.phase_breakdown == ()
    assert result.report.trace_span_count == 0


def test_traced_shm_transport_is_bit_identical(instance):
    untraced, _ = _run_stream(instance, "process", transport="shm")
    traced, recorder = _run_stream(instance, "process", transport="shm", traced=True)
    assert stream_fingerprint(traced) == stream_fingerprint(untraced)
    names = {s[2] for s in recorder.export()}
    assert "transport:ship_delta" in names
    assert "transport:attach" in names


def _run_solve(instance, executor, solver="greedy", traced=False):
    recorder = obs_trace.enable_tracing() if traced else None
    try:
        with DistributedCoordinator(
            SpatialPartitioner(PORTO, 2, 2),
            solver_name=solver,
            executor=executor,
        ) as coordinator:
            result = coordinator.solve(instance)
    finally:
        obs_trace.disable_tracing()
    return result, recorder


@pytest.mark.parametrize("executor", EXECUTORS)
def test_traced_offline_solve_is_bit_identical(instance, executor):
    untraced, _ = _run_solve(instance, executor)
    traced, recorder = _run_solve(instance, executor, traced=True)
    assert solve_fingerprint(traced) == solve_fingerprint(untraced)
    names = {s[2] for s in recorder.export()}
    assert "solve" in names and "merge" in names
    assert "shard_solve" in names  # worker-side roots were adopted


def test_traced_lp_solve_records_exact_tier_spans(instance):
    traced, recorder = _run_solve(instance, "serial", solver="lp", traced=True)
    names = {s[2] for s in recorder.export()}
    assert "lp" in names
    breakdown = dict(traced.report.phase_breakdown)
    assert breakdown["lp"] > 0.0


def test_disabled_tracing_records_nothing(instance):
    result, _ = _run_stream(instance, "serial")
    assert obs_trace.active_recorder() is None
    assert result.report.trace_span_count == 0


def _subtree(spans, root_id):
    """``root_id``'s span and its descendants, by parent links (parents
    always precede their children)."""
    members = {root_id}
    for span in spans:
        if span[1] in members:
            members.add(span[0])
    return [span for span in spans if span[0] in members]


def _ancestors(spans, span_id):
    parent_of = {span[0]: span[1] for span in spans}
    chain = []
    while parent_of[span_id] != obs_trace.NO_PARENT:
        span_id = parent_of[span_id]
        chain.append(span_id)
    return chain


def _open_streams(instance, count):
    """``count`` 1x1 streams on one serial coordinator, appended in
    lock-step, then finished in opening order."""
    batches = window_batches(instance.tasks, WINDOW_S)
    with DistributedCoordinator(SpatialPartitioner(PORTO, 1, 1)) as coordinator:
        sessions = [
            coordinator.open_stream(
                instance.drivers, instance.cost_model, config=BatchConfig(window_s=WINDOW_S)
            )
            for _ in range(count)
        ]
        for batch in batches:
            for session in sessions:
                session.append_batch(batch)
        return [session.finish() for session in sessions]


def test_interleaved_streams_on_one_thread_trace_as_sibling_roots(instance):
    """A stream's lifetime span never captures another stream's spans, so
    two streams interleaved on one thread (the service runs every city's
    stream on its event loop) each report exactly what they would alone."""
    recorder = obs_trace.enable_tracing()
    (solo,) = _open_streams(instance, 1)
    obs_trace.disable_tracing()
    solo_spans = recorder.export()
    (solo_root,) = [s[0] for s in solo_spans if s[2] == "stream"]
    solo_names = sorted(s[2] for s in _subtree(solo_spans, solo_root))

    recorder = obs_trace.enable_tracing()
    results = _open_streams(instance, 2)
    obs_trace.disable_tracing()
    spans = recorder.export()
    roots = [s[0] for s in spans if s[2] == "stream"]
    assert len(roots) == 2
    first, second = roots
    assert first not in _ancestors(spans, second)
    assert second not in _ancestors(spans, first)
    for result, root in zip(results, roots):
        assert result.report.trace_span_count == solo.report.trace_span_count
        assert sorted(s[2] for s in _subtree(spans, root)) == solo_names
