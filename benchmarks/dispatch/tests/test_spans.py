"""The span recorder and the wrappers of the traced run."""

from __future__ import annotations

import asyncio
import importlib
import json
import threading
from pathlib import Path

import pytest

import spans


@pytest.fixture
def ticking(monkeypatch):
    """A clock that advances one second per reading."""
    ticks = iter(range(10_000))
    monkeypatch.setattr(spans, "_clock", lambda: float(next(ticks)))


def test_self_times_of_nested_spans_sum_to_the_root(ticking):
    recorder = spans.SpanRecorder()
    recorder.open_root("root")
    outer = recorder.begin("outer")
    for _ in range(3):
        recorder.end(recorder.begin("inner"))
    recorder.end(outer)
    recorder.end(recorder.begin("outer"))
    recorder.close_root()
    seconds, counts = recorder.self_times()
    assert counts == {"root": 1, "outer": 2, "inner": 3}
    assert seconds["inner"] == 3.0
    assert sum(seconds.values()) == pytest.approx(recorder.wall_s())
    assert seconds["root"] == recorder.wall_s() - seconds["outer"] - seconds["inner"]


def test_spans_of_another_thread_hang_under_the_root_and_cover_its_idle_time():
    recorder = spans.SpanRecorder()
    recorder.open_root("root")

    def work():
        recorder.end(recorder.begin("off-loop"))

    thread = threading.Thread(target=work)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    recorder.close_root()
    assert recorder.parents[recorder.names.index("off-loop")] == recorder.root
    seconds, _ = recorder.self_times()
    assert seconds["root"] + seconds["off-loop"] == pytest.approx(recorder.wall_s())


def test_an_async_wrapper_times_active_segments_only(ticking):
    recorder = spans.SpanRecorder()

    class Service:
        async def call(self, gate):
            await gate.wait()
            return "done"

    wrappers = spans.Wrappers(recorder)
    wrappers.wrap(Service, "call", "layer")

    async def main():
        gate = asyncio.Event()
        task = asyncio.ensure_future(Service().call(gate))
        await asyncio.sleep(0)  # the call runs up to its wait
        recorder.end(recorder.begin("meanwhile"))
        gate.set()
        return await task

    recorder.open_root("root")
    assert asyncio.run(main()) == "done"
    recorder.close_root()
    wrappers.remove()
    seconds, counts = recorder.self_times()
    # Two active segments of one tick each; "meanwhile" ran between them and
    # is nobody's child.
    assert counts["layer"] == 2 and seconds["layer"] == 2.0
    assert recorder.parents[recorder.names.index("meanwhile")] == recorder.root


def test_wrappers_are_fully_removed():
    def current():
        found = {}
        for _name, module_name, class_name, attr in spans.LAYERS:
            module = importlib.import_module(module_name)
            owner = getattr(module, class_name) if class_name else module
            found[module_name, class_name, attr] = owner.__dict__[attr]
        geo = importlib.import_module("repro.geo")
        batch = importlib.import_module("repro.online.batch")
        found["alias"] = geo.cross_km
        found["optimize"] = batch.optimize
        return found

    before = current()
    wrappers = spans.install(spans.SpanRecorder())
    during = current()
    wrappers.remove()
    after = current()
    assert all(during[key] is not before[key] for key in before)
    assert all(after[key] is before[key] for key in before)


def test_the_traced_smoke_runs_attribute_their_wall(smoke):
    _, last = smoke("--seed", "2017", "--trace", "1")
    results = Path(spans.__file__).parent / "results"
    for workload, result in last.items():
        assert result["metrics"]["trace.unattributed_fraction"]["value"] <= 0.10, workload
        trace = json.loads((results / f"trace_{workload}.json").read_text())
        root = trace["parent"].index(-1)
        wall_s = (trace["end_us"][root] - trace["start_us"][root]) / 1e6
        assert sum(trace["self_seconds"].values()) == pytest.approx(wall_s, rel=1e-3), workload
