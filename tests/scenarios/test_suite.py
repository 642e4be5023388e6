"""The scenario suite runner and the built-in library."""

import math

import pytest

from repro.distributed import PersistentWorkerPool, SpatialPartitioner
from repro.scenarios import (
    BUILTIN_SCENARIOS,
    DemandSurge,
    SupplyShock,
    TravelSlowdown,
    ZoneClosure,
    HotspotMigration,
    compile_scenario,
    get_scenario,
    run_scenario_suite,
    scenario_names,
)

TRIPS, DRIVERS = 70, 10


class TestLibrary:
    def test_at_least_five_builtins_with_descriptions(self):
        names = scenario_names()
        assert len(names) >= 5
        for name in names:
            spec = get_scenario(name)
            assert spec.name == name
            assert spec.description

    def test_every_event_type_is_exercised_by_the_library(self):
        seen = set()
        for spec in BUILTIN_SCENARIOS.values():
            seen.update(type(e) for e in spec.events)
        assert {DemandSurge, ZoneClosure, SupplyShock, TravelSlowdown, HotspotMigration} <= seen

    def test_unknown_name_raises_with_the_available_names(self):
        with pytest.raises(KeyError, match="morning-surge"):
            get_scenario("no-such-city-day")


class TestSuite:
    def test_rows_cover_every_scenario_and_mode(self):
        specs = [
            get_scenario("morning-surge").with_scale(TRIPS, DRIVERS),
            get_scenario("driver-strike").with_scale(TRIPS, DRIVERS),
        ]
        suite = run_scenario_suite(
            specs, solvers=("greedy", "nearest"), stream=True, executor="serial"
        )
        assert suite.scenarios() == ["morning-surge", "driver-strike"]
        for name in suite.scenarios():
            modes = [row.mode for row in suite.rows if row.scenario == name]
            assert modes == ["offline-greedy", "offline-nearest", "stream-batched"]
        for row in suite.rows:
            assert row.shard_skew >= 1.0
            assert 0.0 <= row.serve_rate <= 1.0
            if row.mode == "offline-greedy":
                assert math.isnan(row.mean_wait_s)  # no arrival tracked
            else:
                assert row.mean_wait_s >= 0.0

    @pytest.mark.parametrize("rows, cols", [(2, 2), (3, 2)])
    def test_shard_skew_is_max_over_mean_of_the_grid_loads(self, rows, cols):
        """Every offline row, and every (never-rebalancing) stream row,
        reports the hottest grid shard's task count over the mean."""
        specs = [
            get_scenario("morning-surge").with_scale(TRIPS, DRIVERS),
            get_scenario("airport-corridor").with_scale(TRIPS, DRIVERS),
        ]
        suite = run_scenario_suite(
            specs,
            solvers=("greedy", "nearest"),
            rows=rows,
            cols=cols,
            executor="serial",
            bounds=False,
            horizon=2,
        )
        for spec in specs:
            instance = compile_scenario(spec).instance
            plan = SpatialPartitioner(spec.region, rows, cols).partition(instance)
            counts = [shard.task_count for shard in plan.shards]
            expected = max(counts) / (sum(counts) / len(counts))
            rows_of_spec = [row for row in suite.rows if row.scenario == spec.name]
            modes = [row.mode for row in rows_of_spec]
            assert modes == [
                "offline-greedy", "offline-nearest", "stream-batched", "stream-horizon"
            ]
            assert [row.shard_skew for row in rows_of_spec] == [expected] * 4

    def test_render_mentions_every_scenario(self):
        suite = run_scenario_suite(
            [get_scenario("rainy-day").with_scale(TRIPS, DRIVERS)],
            solvers=("greedy",),
            executor="serial",
        )
        text = suite.render()
        assert "rainy-day" in text
        assert "stream-batched" in text

    def test_external_pool_is_reused_and_left_open(self):
        with PersistentWorkerPool(executor="serial") as pool:
            run_scenario_suite(
                [get_scenario("downtown-closure").with_scale(TRIPS, DRIVERS)],
                solvers=("greedy",),
                stream=False,
                pool=pool,
            )
            # The suite must not close a pool it does not own.
            assert pool.submit(0, int, "7").result() == 7

    def test_rejects_unknown_solver(self):
        with pytest.raises(ValueError, match="unknown solver"):
            run_scenario_suite(
                [get_scenario("rainy-day").with_scale(TRIPS, DRIVERS)],
                solvers=("simplex",),
            )

    def test_suite_rows_round_trip_as_dicts(self):
        suite = run_scenario_suite(
            [get_scenario("airport-corridor").with_scale(TRIPS, DRIVERS)],
            solvers=(),
            stream=True,
            executor="serial",
        )
        (row,) = suite.rows
        record = row.as_dict()
        assert record["scenario"] == "airport-corridor"
        assert record["mode"] == "stream-batched"
        assert set(record) >= {
            "serve_rate", "total_value", "total_revenue",
            "mean_wait_s", "shard_skew", "wall_clock_s",
        }


class TestBoundsColumns:
    """Every row of a bounded suite carries the optimality-gap columns the
    benchmarks publish (greedy/lp revenue, Lagrangian bound, gap >= 0)."""

    def test_every_row_carries_the_gap_columns(self):
        suite = run_scenario_suite(
            [get_scenario("morning-surge").with_scale(TRIPS, DRIVERS)],
            solvers=("greedy", "lp"),
            stream=True,
            executor="serial",
        )
        for row in suite.rows:
            assert not math.isnan(row.greedy_revenue)
            assert not math.isnan(row.lp_revenue)
            assert not math.isnan(row.lagrangian_bound)
            assert row.optimality_gap >= 0.0
            assert row.greedy_revenue <= row.lp_revenue + 1e-6
            assert row.lp_revenue <= row.lagrangian_bound + 1e-6
        lp_row = next(r for r in suite.rows if r.mode == "offline-lp")
        assert lp_row.total_value == pytest.approx(lp_row.lp_revenue, rel=1e-9)
        greedy_row = next(r for r in suite.rows if r.mode == "offline-greedy")
        assert greedy_row.total_value == pytest.approx(greedy_row.greedy_revenue, rel=1e-9)

    def test_columns_are_scenario_level_and_identical_across_rows(self):
        suite = run_scenario_suite(
            [get_scenario("rainy-day").with_scale(TRIPS, DRIVERS)],
            solvers=("greedy", "nearest"),
            stream=True,
            executor="serial",
        )
        gaps = {row.optimality_gap for row in suite.rows}
        assert len(gaps) == 1

    def test_bounds_off_leaves_nan_columns(self):
        suite = run_scenario_suite(
            [get_scenario("driver-strike").with_scale(TRIPS, DRIVERS)],
            solvers=("greedy",),
            stream=False,
            bounds=False,
        )
        (row,) = suite.rows
        assert math.isnan(row.optimality_gap)
        record = row.as_dict()
        assert record["optimality_gap"] is None
        assert record["lp_revenue"] is None

    def test_as_dict_serialises_the_gap_columns(self):
        suite = run_scenario_suite(
            [get_scenario("stadium-event").with_scale(TRIPS, DRIVERS)],
            solvers=("auto",),
            stream=False,
        )
        (row,) = suite.rows
        record = row.as_dict()
        assert set(record) >= {
            "greedy_revenue", "lp_revenue", "lagrangian_bound", "optimality_gap",
        }
        assert record["optimality_gap"] >= 0.0

    def test_render_shows_the_gap_column(self):
        suite = run_scenario_suite(
            [get_scenario("airport-corridor").with_scale(TRIPS, DRIVERS)],
            solvers=("lp",),
            stream=False,
        )
        assert "opt_gap" in suite.render()
