"""Parity contract 22: ``market_diameter``'s one fleet pass over the task maps
equals the longest source-rooted chain of task nodes on the explicit merged
graph (``tests/graph_oracle.py``), maximised over drivers — on hand-built
networks, on random markets and across fleet-chunk boundaries.  Also pins
that ``src/`` no longer needs :mod:`networkx`."""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
import repro.market
from repro.geo import GeoPoint
from repro.io import save_instance
from repro.market import Driver, MarketCostModel, MarketInstance, Task, market_diameter
from repro.market.cost import Leg
from repro.market.taskmap import DriverTaskMap, TaskColumns

from ..conftest import build_chain_instance, build_random_instance
from ..graph_oracle import longest_task_chain
from ..taskmap_oracle import network_from_rows

ORIGIN = GeoPoint(41.15, -8.61)
REPO_ROOT = Path(__file__).resolve().parents[2]
REMOVED_NAMES = (
    "driver_diameter",
    "build_driver_graph",
    "build_market_graph",
    "driver_source",
    "driver_sink",
    "task_node",
)


def oracle_diameter(instance: MarketInstance) -> int:
    return max(
        (
            longest_task_chain(instance.task_map(d.driver_id), instance.cost_model)
            for d in instance.drivers
        ),
        default=0,
    )


def hand_built_market(start_deadlines, successors, entry_rows, exit_rows) -> MarketInstance:
    """A market whose task network and task maps are given directly: every
    task servable, legs instant and free, ``topo_order`` the stable
    pickup-deadline sort.  Its cached ``task_network`` / ``task_maps`` are
    the given ones, so nothing is rebuilt from geometry."""
    count = len(start_deadlines)
    start_deadlines = np.asarray(start_deadlines, dtype=float)
    tasks = tuple(
        Task(
            task_id=f"t{m}",
            publish_ts=0.0,
            source=ORIGIN,
            destination=ORIGIN,
            start_deadline_ts=float(start_deadlines[m]),
            end_deadline_ts=float(start_deadlines[m]) + 1.0,
            price=1.0,
        )
        for m in range(count)
    )
    columns = TaskColumns(
        durations_s=np.zeros(count),
        service_costs=np.zeros(count),
        prices=np.ones(count),
        valuations=np.ones(count),
        servable=np.ones(count, dtype=bool),
        start_deadlines=start_deadlines,
        end_deadlines=start_deadlines + 1.0,
        sources=np.zeros((count, 2)),
        destinations=np.zeros((count, 2)),
    )
    network = network_from_rows(
        tasks, columns, successors, [np.zeros(len(succ)) for succ in successors]
    )
    drivers = tuple(Driver(f"d{j}", ORIGIN, ORIGIN, 0.0, 10.0) for j in range(len(entry_rows)))
    instance = MarketInstance(drivers=drivers, tasks=tasks, cost_model=MarketCostModel())
    instance.__dict__["task_network"] = network
    instance.__dict__["task_maps"] = {
        driver.driver_id: DriverTaskMap(
            driver=driver,
            network=network,
            entry_ok=np.asarray(entry, dtype=bool),
            exit_ok=np.asarray(exit_, dtype=bool),
            source_leg_times=np.zeros(count),
            source_leg_costs=np.zeros(count),
            sink_leg_times=np.zeros(count),
            sink_leg_costs=np.zeros(count),
            direct_leg=Leg(time_s=0.0, cost=0.0),
        )
        for driver, entry, exit_ in zip(drivers, entry_rows, exit_rows)
    }
    return instance


@st.composite
def hand_built_markets(draw):
    """Zero to nine tasks and zero to five drivers.  Arcs point forward in
    ``topo_order`` (pickup deadlines often tie); each driver's entry tasks
    are a random subset of that driver's random exit tasks, so a driver may
    be stranded (no entry task) or see only a part of a chain."""
    count = draw(st.integers(0, 9))
    driver_count = draw(st.integers(0, 5))

    def flags(size: int = count) -> np.ndarray:
        return np.array(draw(st.lists(st.booleans(), min_size=size, max_size=size)), dtype=bool)

    start_deadlines = draw(st.lists(st.integers(0, 4), min_size=count, max_size=count))
    topo_order = np.argsort(np.asarray(start_deadlines, dtype=float), kind="stable")
    successors = [None] * count
    for position, m in enumerate(topo_order.tolist()):
        later = topo_order[position + 1:]
        successors[m] = np.sort(later[flags(later.size)])
    exit_rows = [flags() for _ in range(driver_count)]
    entry_rows = [exit_ok & flags() for exit_ok in exit_rows]
    return hand_built_market(start_deadlines, successors, entry_rows, exit_rows)


class TestPassEqualsExplicitGraph:
    @settings(max_examples=300)
    @given(hand_built_markets())
    def test_hand_built_markets(self, instance):
        assert market_diameter(instance) == oracle_diameter(instance)

    @settings(max_examples=25)
    @given(
        seed=st.integers(0, 10_000),
        task_count=st.integers(1, 40),
        driver_count=st.integers(1, 8),
    )
    def test_random_markets(self, seed, task_count, driver_count):
        instance = build_random_instance(
            task_count=task_count, driver_count=driver_count, seed=seed
        )
        assert market_diameter(instance) == oracle_diameter(instance)

    def test_chain_broken_by_a_missing_exit(self):
        """Task 2 cannot reach the driver's destination, so the chain through
        it is cut there; the detour 0 -> 1 -> 3 survives."""
        instance = hand_built_market(
            [0, 1, 2, 3],
            successors=[[1, 2], [2, 3], [3], []],
            entry_rows=[[True, False, False, False]],
            exit_rows=[[True, True, False, True]],
        )
        assert market_diameter(instance) == 3 == oracle_diameter(instance)

    def test_empty_and_stranded_fleets(self):
        instance = build_random_instance(task_count=20, driver_count=4, seed=5)
        chain = build_chain_instance()
        stranded = chain.with_drivers([chain.task_map("stranded").driver])
        for empty in (instance.with_drivers(()), instance.with_tasks(()), stranded):
            assert market_diameter(empty) == 0 == oracle_diameter(empty)

    def test_chunk_boundaries(self, monkeypatch):
        """A fleet cut into chunks of three (the last one partial) gives the
        oracle's D in any driver order, also when the longest chain sits in
        the first chunk and the last chunk's is shorter."""
        instance = build_random_instance(task_count=40, driver_count=10, seed=21)
        chains = {
            d.driver_id: longest_task_chain(instance.task_map(d.driver_id), instance.cost_model)
            for d in instance.drivers
        }
        longest_first = sorted(instance.drivers, key=lambda d: -chains[d.driver_id])
        assert chains[longest_first[0].driver_id] > chains[longest_first[-1].driver_id]
        monkeypatch.setattr("repro.market.instance.FLEET_CHUNK", 3)
        for fleet in (instance.drivers, longest_first, longest_first[::-1]):
            assert market_diameter(instance.with_drivers(fleet)) == max(chains.values())


class TestSurface:
    @pytest.mark.parametrize("name", REMOVED_NAMES)
    def test_removed_names_are_gone(self, name):
        assert not hasattr(repro, name)
        assert not hasattr(repro.market, name)
        assert name not in repro.__all__
        assert name not in repro.market.__all__

    def test_graph_module_is_gone(self):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.market.graph")

    def test_info_runs_without_networkx(self, tmp_path):
        """``import repro`` and ``repro info`` must not need networkx."""
        market = tmp_path / "market.json"
        save_instance(build_random_instance(task_count=20, driver_count=4, seed=9), market)
        script = (
            "import sys\n"
            "sys.modules['networkx'] = None\n"
            "import repro\n"
            "import repro.cli\n"
            f"sys.exit(repro.cli.main(['info', '--market', {str(market)!r}]))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(REPO_ROOT / "src"), env.get("PYTHONPATH", "")])
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120, env=env
        )
        assert proc.returncode == 0, proc.stderr
        assert "diameter" in proc.stdout
