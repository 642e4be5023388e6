#!/usr/bin/env python3
"""Regenerate the README benchmark table from ``benchmarks/results/BENCH_*.json``.

The README's performance table is *derived state*: every number in it comes
from a committed benchmark artifact.  This script rebuilds the table between
the ``<!-- bench-table:begin -->`` / ``<!-- bench-table:end -->`` markers in
``README.md`` so the table cannot drift from the artifacts — regenerate the
JSON (see ``docs/benchmarks.md``), rerun this script, commit both.

Usage::

    python scripts/readme_bench_table.py          # rewrite README.md in place
    python scripts/readme_bench_table.py --check  # exit 1 if the table is stale

``--check`` runs in CI next to the docs link check, so a PR that changes the
artifacts without refreshing the README fails fast.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
README = REPO_ROOT / "README.md"
RESULTS = REPO_ROOT / "benchmarks" / "results"
BEGIN = "<!-- bench-table:begin -->"
END = "<!-- bench-table:end -->"

#: Artifacts folded into the single CI-gate row instead of getting their own.
SMOKE_NAMES = (
    "BENCH_distributed_smoke",
    "BENCH_streaming_smoke",
    "BENCH_scenarios_smoke",
    "BENCH_service_soak_smoke",
    "BENCH_city_scale_smoke",
    "BENCH_optimality_gap_smoke",
    "BENCH_rolling_horizon_smoke",
    "BENCH_observability_smoke",
)


def _load(name: str) -> dict | None:
    path = RESULTS / f"{name}.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text(encoding="utf-8"))


def _parity(flag) -> str:
    return "parity ✓" if flag else "parity ✗"


def _row_distributed_scaling(d: dict) -> list[str]:
    return [
        "`BENCH_distributed_scaling.json` — offline process fan-out",
        f"{d['task_count']} tasks, {d['driver_count']} drivers, "
        f"{d['shard_count']} shards, {d['worker_count']} workers",
        f"{_parity(d['solution_parity'])}, critical-path speedup "
        f"**{d['critical_path_speedup']:.2f}×**, wall {d['wall_serial_s']:.2f}s "
        f"serial → {d['wall_process_s']:.2f}s pooled",
    ]


def _row_streaming_shards(d: dict) -> list[str]:
    runs = d.get("runs_by_workers", {})
    widths = "/".join(sorted(runs, key=int))
    best_cp = max(
        (run["critical_path_speedup"] for run in runs.values()), default=0.0
    )
    return [
        "`BENCH_streaming_shards.json` — live stream on the persistent pool",
        f"{d['task_count']} tasks, {d['driver_count']} drivers, "
        f"{d['shard_count']} shards, {d['batch_count']} windows",
        f"{_parity(d['solution_parity'])} at {widths} workers, critical-path "
        f"speedup **{best_cp:.1f}×**, serial stream {d['wall_serial_s']:.2f}s",
    ]


def _row_scenarios(d: dict) -> list[str]:
    stream_rows = [row for row in d.get("rows", []) if row["mode"] == "stream-batched"]
    serve = [row["serve_rate"] for row in stream_rows]
    skew = [row["shard_skew"] for row in stream_rows]
    spread = (
        f"streamed serve rate {min(serve):.2f}–{max(serve):.2f}, "
        f"shard skew up to {max(skew):.2f}"
        if stream_rows
        else "see the artifact"
    )
    return [
        "`BENCH_scenarios.json` — scenario engine (declarative city days)",
        f"{d['scenario_count']} scenarios, ≤ {d['task_count']} tasks, "
        f"{d['worker_count']} workers, {d['grid']} grid",
        f"{_parity(d['solution_parity'])} (compile deterministic + offline/stream "
        f"executors + stream == replay), {spread}",
    ]


def _row_smokes(artifacts: dict[str, dict]) -> list[str] | None:
    present = [name for name in SMOKE_NAMES if name in artifacts]
    if not present:
        return None
    tasks = [
        artifacts[name].get("task_count", artifacts[name].get("orders"))
        for name in present
    ]
    all_parity = all(
        artifacts[name].get(
            "solution_parity",
            artifacts[name].get("parity_ok", artifacts[name].get("executor_parity")),
        )
        for name in present
    )
    label = " / ".join(f"`{name}.json`" for name in present)
    return [
        f"{label} — CI gates",
        f"{min(tasks)}–{max(tasks)} tasks, 2 workers",
        f"{_parity(all_parity)}; speedup ≥ 1 enforced on ≥ 2-core runners",
    ]


def _row_service_soak(d: dict) -> list[str]:
    latency = d["dispatch_latency"]
    return [
        "`BENCH_service_soak.json` — asyncio dispatch service soak",
        f"{d['orders']} orders, {d['cities']} cities × {d['epochs']} epochs, "
        f"{d['grid']} grid, {d['executor']} pools",
        f"{_parity(d['parity_ok'])} (service == replay over "
        f"{d['parity_checked_epochs']} epochs), dispatch p50 "
        f"**{latency['p50_ms']:.0f}ms** / p99 **{latency['p99_ms']:.0f}ms**, "
        f"{d['orders_per_second']:.0f} orders/s",
    ]


def _row_city_scale(d: dict) -> list[str]:
    offline = d["offline"]
    return [
        "`BENCH_city_scale.json` — zero-copy shm transport vs pickle",
        f"{d['task_count']} tasks, {d['driver_count']} drivers, "
        f"{d['worker_count']} workers",
        f"{_parity(d['solution_parity'])} (shm == pickle == serial), "
        f"**{d['bytes_over_pipe_ratio']:.0f}×** fewer bytes over the pipe "
        f"({offline['pickle']['bytes_over_pipe']} → "
        f"{offline['shm']['bytes_over_pipe']} B), "
        f"{d['streaming']['shm']['segment_reuses']} segment reuses streaming, "
        f"critical-path speedup **{d['critical_path_speedup']:.2f}×**",
    ]


def _row_optimality_gap(d: dict) -> list[str]:
    records = d.get("records", {})
    greedy_gaps = [r["greedy_gap"] for r in records.values()]
    auto_greedy = sum(r["auto_greedy_shards"] for r in records.values())
    auto_total = auto_greedy + sum(r["auto_lp_shards"] for r in records.values())
    parity = d.get("lp_parity", False) and d.get("auto_parity", False)
    return [
        "`BENCH_optimality_gap.json` — exact tier (LP) with certified error bars",
        f"{d['scenario_count']} scenarios, {d['worker_count']} workers, "
        f"{d['grid']} grid",
        f"{_parity(parity)} (lp/auto merges across executors), shipped gap "
        f"≤ **{d['max_optimality_gap']:.2%}**, greedy error bar "
        f"{min(greedy_gaps):.2%}–{max(greedy_gaps):.2%}, auto kept greedy on "
        f"{auto_greedy}/{auto_total} shards",
    ]


def _row_rolling_horizon(d: dict) -> list[str]:
    records = d["comparison"]
    serve_deltas = [r["serve_rate_delta"] for r in records.values()]
    wait_deltas = [r["mean_wait_delta_s"] for r in records.values()]
    degradation = all(r["horizon1_equals_myopic"] for r in records.values())
    return [
        "`BENCH_rolling_horizon.json` — rolling-horizon dispatch vs myopic",
        f"{d['scenario_count']} scenarios, horizon {d['horizon']} + "
        f"{d['overlap']} overlap blocks, {d['forecast']} forecast",
        f"{_parity(degradation)} (horizon=1 == myopic), improved serve rate "
        f"AND wait on **{d['improved_both_count']}/{d['scenario_count']}** "
        f"scenarios, serve rate up to **{max(serve_deltas):+.3f}**, mean wait "
        f"down to **{min(wait_deltas):+.0f}s**",
    ]


def _row_observability(d: dict) -> list[str]:
    phases = d["phase_seconds"]
    hot = max(phases, key=phases.get)
    return [
        "`BENCH_observability.json` — flight-recorder overhead budgets",
        f"{d['task_count']} tasks, {d['driver_count']} drivers, "
        f"{d['rounds']}× interleaved rounds",
        f"{_parity(d['solution_parity'])} (traced == untraced), traced overhead "
        f"**{d['traced_overhead_pct']:.2f}%** (< 5%), disabled "
        f"**{d['disabled_overhead_pct']:.2f}%** (< 1%, "
        f"{d['disabled_span_cost_ns']:.0f}ns/span), hottest phase "
        f"{hot} {phases[hot]:.3f}s of {d['span_count']} spans",
    ]


ROW_BUILDERS = {
    "BENCH_distributed_scaling": _row_distributed_scaling,
    "BENCH_streaming_shards": _row_streaming_shards,
    "BENCH_scenarios": _row_scenarios,
    "BENCH_service_soak": _row_service_soak,
    "BENCH_city_scale": _row_city_scale,
    "BENCH_optimality_gap": _row_optimality_gap,
    "BENCH_rolling_horizon": _row_rolling_horizon,
    "BENCH_observability": _row_observability,
}


def build_table() -> str:
    artifacts = {
        path.stem: json.loads(path.read_text(encoding="utf-8"))
        for path in sorted(RESULTS.glob("BENCH_*.json"))
    }
    rows: list[list[str]] = []
    for name, builder in ROW_BUILDERS.items():
        if name in artifacts:
            rows.append(builder(artifacts[name]))
    unknown = [
        name
        for name in artifacts
        if name not in ROW_BUILDERS and name not in SMOKE_NAMES
    ]
    for name in unknown:
        d = artifacts[name]
        workload = ", ".join(
            f"{d[key]} {key.removesuffix('_count')}s"
            for key in ("task_count", "driver_count")
            if key in d
        )
        rows.append([f"`{name}.json`", workload or "—", "see the artifact"])
    smoke_row = _row_smokes(artifacts)
    if smoke_row:
        rows.append(smoke_row)

    cpu_counts = sorted({d.get("cpu_count") for d in artifacts.values() if d.get("cpu_count")})
    cpu_note = "/".join(str(c) for c in cpu_counts) or "?"
    lines = [
        f"| benchmark (source JSON) | workload | key numbers ({cpu_note}-core container) |",
        "|---|---|---|",
    ]
    lines += ["| " + " | ".join(cells) + " |" for cells in rows]
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    check = "--check" in argv
    text = README.read_text(encoding="utf-8")
    try:
        head, rest = text.split(BEGIN, 1)
        _stale, tail = rest.split(END, 1)
    except ValueError:
        print(
            f"error: {README} is missing the {BEGIN} / {END} markers",
            file=sys.stderr,
        )
        return 2
    rebuilt = f"{head}{BEGIN}\n{build_table()}\n{END}{tail}"
    if rebuilt == text:
        print("README benchmark table is up to date")
        return 0
    if check:
        print(
            "README benchmark table is stale: run "
            "`python scripts/readme_bench_table.py` and commit the result",
            file=sys.stderr,
        )
        return 1
    README.write_text(rebuilt, encoding="utf-8")
    print("README benchmark table regenerated")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
