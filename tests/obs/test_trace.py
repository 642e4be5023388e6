"""The flight recorder: nesting, stitching, bounded memory, the off switch."""

import threading

import pytest

from repro.obs import trace as obs_trace
from repro.obs.trace import (
    DROPPED,
    NO_PARENT,
    PHASE_NAMES,
    TraceRecorder,
    phase_of,
    phase_totals,
)


@pytest.fixture(autouse=True)
def _no_ambient_recorder():
    """Tests must not leak a thread-local recorder into each other."""
    obs_trace.disable_tracing()
    yield
    obs_trace.disable_tracing()


class TestRecorder:
    def test_span_nesting_is_implicit(self):
        recorder = TraceRecorder()
        with recorder.span("outer"):
            with recorder.span("inner"):
                pass
        spans = recorder.export()
        assert [s[2] for s in spans] == ["outer", "inner"]
        outer, inner = spans
        assert outer[1] == NO_PARENT
        assert inner[1] == outer[0]

    def test_span_interval_ordering(self):
        recorder = TraceRecorder()
        with recorder.span("outer"):
            with recorder.span("inner"):
                pass
        outer, inner = recorder.export()
        assert outer[3] <= inner[3] <= inner[4] <= outer[4]

    def test_attrs_are_frozen_tuples(self):
        recorder = TraceRecorder()
        with recorder.span("s", shard=3, kind="x"):
            pass
        (span,) = recorder.export()
        assert span[5] == (("shard", 3), ("kind", "x"))

    def test_explicit_parent(self):
        recorder = TraceRecorder()
        root = recorder.begin("root")
        child = recorder.begin("child", parent_id=root, extra=1)
        recorder.end(child)
        recorder.end(root)
        spans = recorder.export()
        assert spans[1][1] == root
        assert ("extra", 1) in spans[1][5]

    def test_end_pops_abandoned_children(self):
        recorder = TraceRecorder()
        outer = recorder.begin("outer")
        recorder.begin("abandoned")
        recorder.end(outer)  # never ended the child explicitly
        outer_span, inner_span = recorder.export()
        assert inner_span[4] is not None
        assert inner_span[4] == outer_span[4]
        # The stack is clean: a new span is a root again.
        fresh = recorder.begin("fresh")
        recorder.end(fresh)
        assert recorder.export()[2][1] == NO_PARENT

    def test_open_spans_export_closed_at_now(self):
        recorder = TraceRecorder()
        recorder.begin("open")
        (span,) = recorder.export()
        assert span[4] >= span[3]

    def test_bounded_memory_counts_drops(self):
        recorder = TraceRecorder(max_spans=2)
        assert recorder.begin("a") == 0
        assert recorder.begin("b") == 1
        assert recorder.begin("c") == DROPPED
        recorder.end(DROPPED)  # must be a harmless no-op
        assert recorder.dropped == 1
        assert len(recorder) == 2

    def test_mark_and_spans_since(self):
        recorder = TraceRecorder()
        with recorder.span("before"):
            pass
        mark = len(recorder)
        with recorder.span("after"):
            pass
        assert [s[2] for s in recorder.spans_since(mark)] == ["after"]

    def test_detached_span_is_resumed_for_one_block(self):
        recorder = TraceRecorder()
        root = recorder.begin("root")
        recorder.detach(root)
        with recorder.span("outside"):
            pass
        with recorder.resume(root):
            with recorder.span("inside"):
                pass
        with recorder.span("after"):
            pass
        recorder.end(root)
        parents = {s[2]: s[1] for s in recorder.export()}
        assert parents == {
            "root": NO_PARENT, "outside": NO_PARENT, "inside": root, "after": NO_PARENT
        }
        assert [s[2] for s in recorder.subtree(root)] == ["root", "inside"]
        assert recorder.subtree(DROPPED) == ()

    def test_per_thread_stacks_do_not_interleave(self):
        recorder = TraceRecorder()
        barrier = threading.Barrier(2)

        def worker():
            barrier.wait()
            with recorder.span("thread_outer"):
                with recorder.span("thread_inner"):
                    pass

        thread = threading.Thread(target=worker)
        thread.start()
        barrier.wait()
        with recorder.span("main_outer"):
            thread.join()
        by_name = {s[2]: s for s in recorder.export()}
        assert by_name["thread_outer"][1] == NO_PARENT
        assert by_name["thread_inner"][1] == by_name["thread_outer"][0]
        assert by_name["main_outer"][1] == NO_PARENT


class TestAdopt:
    def test_adopt_remaps_ids_and_reparents_roots(self):
        worker = TraceRecorder()
        with worker.span("shard_solve", pid=123):
            with worker.span("hungarian"):
                pass
        parent = TraceRecorder()
        root = parent.begin("solve")
        adopted = parent.adopt(worker.export(), parent_id=root, shard=7)
        parent.end(root)
        assert adopted == 2
        spans = {s[2]: s for s in parent.export()}
        assert spans["shard_solve"][1] == root
        assert ("shard", 7) in spans["shard_solve"][5]
        # Child keeps its worker-side parent, remapped into this recorder.
        assert spans["hungarian"][1] == spans["shard_solve"][0]
        assert ("shard", 7) not in spans["hungarian"][5]

    def test_adopt_respects_budget(self):
        worker = TraceRecorder()
        for _ in range(3):
            with worker.span("s"):
                pass
        parent = TraceRecorder(max_spans=2)
        assert parent.adopt(worker.export()) == 2
        assert parent.dropped == 1


class TestModuleSwitch:
    def test_disabled_span_is_shared_null(self):
        assert obs_trace.span("anything") is obs_trace.span("else")
        with obs_trace.span("noop", attr=1):
            pass  # records nowhere, raises nothing

    def test_enable_records_and_disable_returns(self):
        recorder = obs_trace.enable_tracing()
        assert obs_trace.tracing_enabled()
        assert obs_trace.active_recorder() is recorder
        with obs_trace.span("recorded"):
            pass
        returned = obs_trace.disable_tracing()
        assert returned is recorder
        assert not obs_trace.tracing_enabled()
        assert [s[2] for s in recorder.export()] == ["recorded"]

    def test_install_recorder_saves_and_restores(self):
        mine = TraceRecorder()
        previous = obs_trace.install_recorder(mine)
        assert previous is None
        assert obs_trace.active_recorder() is mine
        assert obs_trace.install_recorder(previous) is mine
        assert obs_trace.active_recorder() is None

    def test_recorder_is_thread_local(self):
        obs_trace.enable_tracing()
        seen = {}

        def worker():
            seen["recorder"] = obs_trace.active_recorder()

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        assert seen["recorder"] is None


class TestPhases:
    def test_leaf_names_map_to_phases(self):
        assert phase_of("candidates") == "candidates"
        assert phase_of("hungarian") == "hungarian"
        for name in ("lp", "greedy", "lagrangian"):
            assert phase_of(name) == "lp"
        assert phase_of("transport:ship_delta") == "transport"
        assert phase_of("transport:attach") == "transport"
        assert phase_of("merge") == "merge"

    def test_container_names_are_uncategorised(self):
        for name in ("shard_solve", "shard_stream", "append", "flush",
                      "stream", "solve", "rebuild", "gateway:ship"):
            assert phase_of(name) is None

    def test_phase_totals_order_and_sums(self):
        spans = (
            (0, NO_PARENT, "append", 0.0, 10.0, ()),       # container: ignored
            (1, 0, "candidates", 0.0, 1.5, ()),
            (2, 0, "hungarian", 1.5, 2.0, ()),
            (3, 0, "candidates", 2.0, 2.25, ()),
        )
        totals = phase_totals(spans)
        assert tuple(name for name, _ in totals) == PHASE_NAMES
        by_name = dict(totals)
        assert by_name["candidates"] == pytest.approx(1.75)
        assert by_name["hungarian"] == pytest.approx(0.5)
        assert by_name["lp"] == 0.0
