"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.io import load_instance, load_solution
from repro.trace import load_porto_trips

#: The metrics the replayed and the streamed solve summaries share.
SHARED_METRICS = ("total_value", "total_revenue", "served_count", "serve_rate")


def shared_metrics(text):
    return {
        line.split(":")[0]: line
        for line in text.splitlines()
        if line.split(":")[0] in SHARED_METRICS
    }


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_subcommands(self):
        parser = build_parser()
        for command in ("generate-trace", "build-market", "solve", "bound", "info", "experiment"):
            args = parser.parse_args(
                [command]
                + (["--output", "x"] if command in ("generate-trace", "build-market") else [])
                + (["--market", "m"] if command in ("solve", "bound", "info") else [])
            )
            assert args.command == command


class TestModeOnlyFlagTable:
    """The defaults the mode-only table compares against are the parser's."""

    REQUIRED = {
        "solve": ["solve", "--market", "m"],
        "experiment": ["experiment"],
        "scenario run": ["scenario", "run", "--name", "n"],
        "scenario compare": ["scenario", "compare"],
    }

    def test_table_defaults_match_the_parser(self):
        from repro.cli import _MODE_ONLY_FLAGS

        parser = build_parser()
        for command, defaults, _reads, _message in _MODE_ONLY_FLAGS:
            args = parser.parse_args(self.REQUIRED[command])
            for dest, default in defaults.items():
                assert getattr(args, dest) == default, (command, dest)


class TestGenerateTrace:
    def test_writes_porto_csv(self, tmp_path, capsys):
        output = tmp_path / "trace.csv"
        assert main(["generate-trace", "--trips", "25", "--seed", "3", "--output", str(output)]) == 0
        assert "wrote 25 trips" in capsys.readouterr().out
        assert len(load_porto_trips(output)) == 25


class TestBuildAndSolve:
    @pytest.fixture(scope="class")
    def market_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli") / "market.json"
        code = main(
            [
                "build-market",
                "--trips",
                "30",
                "--drivers",
                "8",
                "--seed",
                "5",
                "--output",
                str(path),
            ]
        )
        assert code == 0
        return path

    def test_build_market_output_is_loadable(self, market_path):
        instance = load_instance(market_path)
        assert instance.task_count == 30
        assert instance.driver_count == 8

    @pytest.mark.parametrize("algorithm", ["greedy", "maxMargin", "nearest", "batched"])
    def test_solve_prints_summary(self, market_path, algorithm, capsys):
        assert main(["solve", "--market", str(market_path), "--algorithm", algorithm]) == 0
        out = capsys.readouterr().out
        assert f"algorithm: {algorithm}" in out
        assert "total_value" in out
        assert "serve_rate" in out

    def test_solve_saves_solution(self, market_path, tmp_path, capsys):
        output = tmp_path / "solution.json"
        assert (
            main(
                [
                    "solve",
                    "--market",
                    str(market_path),
                    "--algorithm",
                    "greedy",
                    "--output",
                    str(output),
                ]
            )
            == 0
        )
        data = json.loads(output.read_text())
        assert data["algorithm"] == "greedy"

    def test_solve_streamed_matches_replay(self, market_path, capsys):
        """--stream on a 1x1 grid is the batched replay, bit for bit."""
        assert main(["solve", "--market", str(market_path), "--algorithm", "batched"]) == 0
        replay_out = capsys.readouterr().out
        assert (
            main(
                ["solve", "--market", str(market_path), "--algorithm", "batched", "--stream"]
            )
            == 0
        )
        stream_out = capsys.readouterr().out
        assert "streamed, serial executor" in stream_out
        assert shared_metrics(replay_out) == shared_metrics(stream_out)

    def test_solve_horizon_streamed_matches_replay(self, market_path, capsys):
        """Rolling-horizon dispatch: --stream on a 1x1 grid is the replay."""
        solve = ["solve", "--market", str(market_path), "--algorithm", "batched"]
        horizon = ["--horizon", "3", "--overlap", "1"]
        assert main(solve + horizon) == 0
        replay_out = capsys.readouterr().out
        assert main(solve + horizon + ["--stream"]) == 0
        stream_out = capsys.readouterr().out
        assert "horizon=3 dispatch" in stream_out
        assert len(shared_metrics(replay_out)) == len(SHARED_METRICS)
        assert shared_metrics(replay_out) == shared_metrics(stream_out)

    def test_solve_streamed_sharded_process(self, market_path, capsys):
        assert (
            main(
                [
                    "solve",
                    "--market",
                    str(market_path),
                    "--algorithm",
                    "batched",
                    "--stream",
                    "--executor",
                    "process",
                    "--grid",
                    "2x2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "streamed, process executor" in out
        assert "shards: 4 (2x2 grid)" in out
        assert "total_value" in out

    def test_stream_requires_batched(self, market_path):
        with pytest.raises(SystemExit):
            main(["solve", "--market", str(market_path), "--algorithm", "greedy", "--stream"])
        with pytest.raises(SystemExit):
            main(["solve", "--market", str(market_path), "--executor", "process"])
        with pytest.raises(SystemExit):
            main(["solve", "--market", str(market_path), "--grid", "2x2"])
        with pytest.raises(SystemExit, match="--transport"):
            main(["solve", "--market", str(market_path), "--transport", "shm"])
        with pytest.raises(SystemExit):
            main(
                [
                    "solve",
                    "--market",
                    str(market_path),
                    "--algorithm",
                    "batched",
                    "--stream",
                    "--grid",
                    "bogus",
                ]
            )

    @pytest.mark.parametrize(
        "flags",
        [["--horizon", "3"], ["--overlap", "1"], ["--forecast", "oracle"]],
    )
    def test_horizon_flags_require_batched(self, market_path, flags):
        """No horizon knob is silently ignored off the batched algorithm."""
        with pytest.raises(SystemExit, match="--forecast require --algorithm batched"):
            main(["solve", "--market", str(market_path), "--algorithm", "greedy", *flags])

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["run", "--name", "airport-corridor", "--mode", "offline", "--horizon", "4"],
             "--horizon"),
            (["run", "--name", "airport-corridor", "--mode", "offline", "--overlap", "2"],
             "--overlap"),
            (["run", "--name", "airport-corridor", "--mode", "offline", "--forecast", "oracle"],
             "--forecast"),
            (["run", "--name", "airport-corridor", "--mode", "stream", "--solver", "lp"],
             "--solver"),
            (["compare", "--names", "rainy-day", "--no-stream", "--horizon", "4"],
             "--horizon"),
        ],
    )
    def test_scenario_rejects_flags_its_mode_never_reads(self, argv, flag, capsys):
        with pytest.raises(SystemExit, match=flag):
            main(["scenario", *argv, "--trips", "40", "--drivers", "6"])
        assert capsys.readouterr().out == ""  # rejected before anything ran

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["solve", "--algorithm", "greedy", "--gap-threshold", "0.5"], "--gap-threshold"),
            (["solve", "--algorithm", "batched", "--gap-threshold", "0.5"], "--gap-threshold"),
            (["solve", "--algorithm", "greedy", "--batch-window", "30"], "--batch-window"),
            (["solve", "--algorithm", "lp", "--batch-window", "30"], "--batch-window"),
            (["experiment", "--figure", "fig5", "--executor", "process"], "--executor"),
            (["experiment", "--figure", "fig3-4", "--stream"], "--stream"),
            (["scenario", "run", "--name", "airport-corridor", "--mode", "stream",
              "--gap-threshold", "0.5", "--trips", "40", "--drivers", "6"],
             "--gap-threshold"),
        ],
    )
    def test_flags_their_mode_never_reads_are_rejected(self, market_path, argv, flag, capsys):
        if argv[0] == "solve":
            argv = [argv[0], "--market", str(market_path), *argv[1:]]
        with pytest.raises(SystemExit, match=flag):
            main(argv)
        assert capsys.readouterr().out == ""  # rejected before anything ran

    def test_bound_command(self, market_path, capsys):
        assert main(["bound", "--market", str(market_path), "--kind", "lagrangian"]) == 0
        assert "upper bound" in capsys.readouterr().out

    def test_info_command(self, market_path, capsys):
        assert main(["info", "--market", str(market_path)]) == 0
        out = capsys.readouterr().out
        assert "tasks" in out and "diameter" in out

    def test_home_work_home_market(self, tmp_path):
        path = tmp_path / "hwh.json"
        main(
            [
                "build-market",
                "--trips",
                "15",
                "--drivers",
                "4",
                "--working-model",
                "home_work_home",
                "--output",
                str(path),
            ]
        )
        instance = load_instance(path)
        assert all(d.source == d.destination for d in instance.drivers)


class TestExperimentCommand:
    def test_executor_and_stream_flags_parse(self):
        parser = build_parser()
        args = parser.parse_args(
            ["experiment", "--figure", "ablations", "--executor", "process", "--stream"]
        )
        assert args.executor == "process"
        assert args.stream is True
        args = parser.parse_args(["experiment", "--no-stream"])
        assert args.stream is False
        assert args.executor == "serial"

    def test_ablations_streamed_tiny(self, capsys):
        assert (
            main(
                [
                    "experiment",
                    "--figure",
                    "ablations",
                    "--scale",
                    "tiny",
                    "--stream",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "stream mode" in out
        assert "unsharded batched stream" in out

    def test_fig3_4_tiny(self, capsys):
        assert main(["experiment", "--figure", "fig3-4", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 3" in out and "Fig. 4" in out

    def test_fig6_9_tiny(self, capsys):
        assert main(["experiment", "--figure", "fig6-9", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 6" in out and "Fig. 9" in out


class TestScenarioCommand:
    def test_scenario_flags_parse(self):
        parser = build_parser()
        args = parser.parse_args(["scenario", "list"])
        assert args.scenario_command == "list"
        args = parser.parse_args(
            ["scenario", "run", "--name", "rainy-day", "--mode", "offline",
             "--executor", "process", "--grid", "3x2", "--trips", "50"]
        )
        assert args.scenario_command == "run"
        assert args.name == "rainy-day"
        assert args.mode == "offline"
        assert args.grid == "3x2"
        args = parser.parse_args(
            ["scenario", "compare", "--names", "rainy-day,driver-strike", "--no-stream"]
        )
        assert args.scenario_command == "compare"
        assert args.stream is False

    def test_scenario_list_names_every_builtin(self, capsys):
        from repro.scenarios import scenario_names

        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        for name in scenario_names():
            assert name in out

    def test_scenario_run_offline_tiny(self, capsys):
        assert (
            main(
                ["scenario", "run", "--name", "morning-surge", "--mode", "offline",
                 "--trips", "40", "--drivers", "6"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "morning-surge" in out
        assert "offline-greedy" in out
        assert "serve_rate" in out

    def test_scenario_run_streamed_tiny(self, capsys):
        assert (
            main(
                ["scenario", "run", "--name", "downtown-closure", "--mode", "stream",
                 "--trips", "40", "--drivers", "6", "--grid", "2x2"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "stream-batched" in out
        assert "mean wait" in out

    def test_scenario_compare_tiny(self, capsys):
        assert (
            main(
                ["scenario", "compare", "--names", "rainy-day,driver-strike",
                 "--trips", "40", "--drivers", "6", "--no-stream"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "rainy-day" in out and "driver-strike" in out
        assert "offline-greedy" in out

    def test_experiment_scenarios_requires_figure_all(self):
        with pytest.raises(SystemExit):
            main(["experiment", "--figure", "fig3-4", "--scenarios", "all"])


class TestExactTierCli:
    @pytest.fixture(scope="class")
    def market_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli-lp") / "market.json"
        assert main(
            ["build-market", "--trips", "30", "--drivers", "8", "--seed", "5",
             "--output", str(path)]
        ) == 0
        return path

    @pytest.mark.parametrize("algorithm", ["lp", "auto"])
    def test_solve_prints_the_bound_sandwich(self, market_path, algorithm, capsys):
        assert main(
            ["solve", "--market", str(market_path), "--algorithm", algorithm]
        ) == 0
        out = capsys.readouterr().out
        assert f"algorithm: {algorithm}" in out
        assert "exact tier chose:" in out
        assert "optimality_gap" in out
        assert "lagrangian_bound" in out

    def test_gap_threshold_flag_reaches_auto(self, market_path, capsys):
        assert main(
            ["solve", "--market", str(market_path), "--algorithm", "auto",
             "--gap-threshold", "1.0"]
        ) == 0
        out = capsys.readouterr().out
        assert "exact tier chose: greedy" in out

    def test_scenario_run_offline_lp_prints_bounds(self, capsys):
        assert main(
            ["scenario", "run", "--name", "morning-surge", "--mode", "offline",
             "--solver", "lp", "--trips", "40", "--drivers", "6"]
        ) == 0
        out = capsys.readouterr().out
        assert "offline-lp" in out
        assert "bounds: greedy" in out
        assert "gap" in out

    def test_scenario_compare_bounds_flags_parse(self):
        parser = build_parser()
        args = parser.parse_args(["scenario", "compare", "--no-bounds"])
        assert args.bounds is False
        args = parser.parse_args(
            ["scenario", "compare", "--bounds", "--gap-threshold", "0.1"]
        )
        assert args.bounds is True
        assert args.gap_threshold == pytest.approx(0.1)

    def test_scenario_compare_with_lp_solver(self, capsys):
        assert main(
            ["scenario", "compare", "--names", "rainy-day", "--solvers",
             "greedy,auto", "--trips", "40", "--drivers", "6", "--no-stream"]
        ) == 0
        out = capsys.readouterr().out
        assert "offline-auto" in out
        assert "opt_gap" in out


class TestReplayAndStreamAgree:
    """On the recipe market, ``solve --algorithm batched`` and its ``--stream``
    twin write the same solution document and print the same metrics."""

    @pytest.fixture(scope="class")
    def recipe_market(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli-recipe") / "market.json"
        assert main(
            ["build-market", "--trips", "150", "--drivers", "40", "--seed", "5",
             "--output", str(path)]
        ) == 0
        return path

    def test_output_documents_and_metric_lines_agree(self, recipe_market, tmp_path, capsys):
        capsys.readouterr()
        solve = ["solve", "--market", str(recipe_market), "--algorithm", "batched"]
        replay_path, stream_path = tmp_path / "a.json", tmp_path / "b.json"
        assert main(solve + ["--output", str(replay_path)]) == 0
        replay_out = capsys.readouterr().out
        assert main(solve + ["--stream", "--output", str(stream_path)]) == 0
        stream_out = capsys.readouterr().out

        replay_doc = json.loads(replay_path.read_text())
        stream_doc = json.loads(stream_path.read_text())
        assert replay_doc["plans"] == stream_doc["plans"]
        assert replay_doc["rejected_tasks"] == stream_doc["rejected_tasks"]
        assert replay_doc["rejected_tasks"]
        assert any(plan["arrival_times"] for plan in replay_doc["plans"])

        instance = load_instance(recipe_market)
        replay, stream = (load_solution(p, instance) for p in (replay_path, stream_path))
        assert replay.plans == stream.plans
        assert replay.rejected_tasks == stream.rejected_tasks
        metric_lines = [f"{key}: " for key in replay.summary()]
        lines = {
            name: [line for line in out.splitlines() if line.startswith(tuple(metric_lines))]
            for name, out in (("replay", replay_out), ("stream", stream_out))
        }
        assert len(lines["replay"]) == len(metric_lines)
        assert lines["replay"] == lines["stream"]


class TestBadMarketFile:
    """A market file the program did not write ends in one ``error:`` line
    naming the problem, for every command that reads one."""

    COMMANDS = (["info"], ["solve", "--algorithm", "greedy"], ["bound", "--kind", "lp"])

    def run(self, market, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([argv[0], "--market", str(market), *argv[1:]])
        message = excinfo.value.code
        assert isinstance(message, str) and message.startswith("error: ")
        assert capsys.readouterr().out == ""
        return message

    @pytest.mark.parametrize("argv", COMMANDS)
    def test_missing_file(self, tmp_path, argv, capsys):
        message = self.run(tmp_path / "nonexistent.json", argv, capsys)
        assert "No such file" in message

    @pytest.mark.parametrize("argv", COMMANDS)
    def test_file_that_is_not_json(self, tmp_path, argv, capsys):
        market = tmp_path / "market.json"
        market.write_text("lat,lon\n41.1,-8.6\n", encoding="utf-8")
        self.run(market, argv, capsys)

    @pytest.mark.parametrize("argv", COMMANDS)
    def test_json_that_is_not_a_market(self, tmp_path, argv, capsys):
        market = tmp_path / "market.json"
        market.write_text(json.dumps({"format": "x"}), encoding="utf-8")
        message = self.run(market, argv, capsys)
        assert "not a repro-market document" in message


class TestExactSolverErrorExit:
    """A market above the exact solver's size limit ends in a one-line
    ``error:`` exit pointing at the LP tier, not in a traceback."""

    @pytest.fixture(scope="class")
    def large_market(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli-large") / "market.json"
        assert main(
            ["build-market", "--trips", "400", "--drivers", "80", "--seed", "5",
             "--output", str(path)]
        ) == 0
        return path

    @pytest.mark.parametrize(
        "argv, lp_flag",
        [(["solve", "--algorithm", "exact"], "--algorithm lp"),
         (["bound", "--kind", "exact"], "--kind lp")],
    )
    def test_size_guard_is_a_cli_error(self, large_market, argv, lp_flag, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([argv[0], "--market", str(large_market), *argv[1:]])
        message = excinfo.value.code
        assert isinstance(message, str)  # printed to stderr, exit status 1
        assert message.startswith("error: instance with 80 drivers / 400 tasks")
        assert lp_flag in message
        assert "size_limit" not in message
        assert capsys.readouterr().out == ""

    def test_exit_status_is_one(self, large_market):
        import subprocess
        import sys

        completed = subprocess.run(
            [sys.executable, "-m", "repro", "bound", "--market", str(large_market),
             "--kind", "exact"],
            capture_output=True,
            text=True,
        )
        assert completed.returncode == 1
        assert completed.stderr.startswith("error: ")
        assert "Traceback" not in completed.stderr
