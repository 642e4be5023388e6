#!/usr/bin/env python3
"""The dispatch benchmark: one command, four workloads, layer attribution.

    python3 benchmarks/dispatch/run.py [--workload W] [--seed N] [--seconds S]
                                       [--trace [0|1]] [--aa N] [--smoke]

Each workload runs in a fresh child process (so ``peak_rss_mb`` and the
set-up are its own, and numpy loads under the pinned environment).  The
parent prints every metric by name with its unit, sample count and
quartiles; with ``--workload`` the last line of standard output is the one
JSON object ``BENCHMARK.json``'s contract prescribes.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: The child's environment, fixed before its interpreter starts.
#: ``NUMPY_MADVISE_HUGEPAGE=0``: with numpy's default huge-page madvise, cold
#: solves on the reference VM were bimodal (1.14-2.76 s, sys time 0.08 vs
#: 1.1 s of THP faults); without it 1.28-1.75 s.  ``PYTHONHASHSEED=0``: set
#: and dict-of-str iteration order, hence allocation patterns, repeat.
CHILD_ENV = {"NUMPY_MADVISE_HUGEPAGE": "0", "PYTHONHASHSEED": "0"}


# ----------------------------------------------------------------------
# child: one workload, one process
# ----------------------------------------------------------------------
def quartiles(values) -> list:
    values = list(values)
    if len(values) < 2:
        return [values[0]] * 3 if values else []
    return statistics.quantiles(values, n=4)


def env_stamp(workload, blas_pinned: dict) -> dict:
    import platform

    import numpy
    import scipy

    sha = "unknown"
    if (ROOT / ".git").exists():  # never walk up out of a plain checkout
        try:
            sha = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
                capture_output=True, text=True, timeout=10,
            ).stdout.strip() or sha
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": sha,
        "NUMPY_MADVISE_HUGEPAGE": os.environ.get("NUMPY_MADVISE_HUGEPAGE"),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
        "blas_threads": os.environ.get("OMP_NUM_THREADS"),
        "blas_pinned_by_benchmark": sorted(blas_pinned),
        "executor": workload.executor,
        "transport": workload.transport,
    }


def child(args) -> int:
    import gc
    import importlib.util
    import resource
    import time

    # ``import repro`` loads numpy, so pin the BLAS pools first, with the
    # repo's own function loaded by path.
    spec = importlib.util.spec_from_file_location("_runtime", ROOT / "src/repro/runtime.py")
    runtime = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(runtime)
    blas_pinned = runtime.pin_blas_threads()
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    import numpy as np
    import scipy.optimize  # noqa: F401  (loaded before any clock starts)

    import workloads

    cls = workloads.WORKLOADS[args.workload]
    clock = time.perf_counter

    setups = []
    workload = None
    for _ in range(1 if args.smoke else SETUP_REPEATS):
        if workload is not None:
            workload.teardown()
        workload = None
        gc.collect()  # the last repeat's garbage is not this repeat's set-up
        workload = cls(args.seed, args.smoke)
        start = clock()
        workload.setup()
        setups.append(clock() - start)
    start = clock()
    workload.reference()
    reference_s = clock() - start

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "env": env_stamp(workload, blas_pinned),
    }
    if args.trace:
        results = HERE / "results"
        results.mkdir(exist_ok=True)
        layers = workload.trace(args.seconds, results / f"trace_{args.workload}.json")
        leaked = workload.teardown()
        units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        extra = sorted(set(layers) - set(units))
        if extra:
            print(f"per-layer values not in BENCHMARK.json: {extra}", file=sys.stderr)
        result.update(
            correct=not leaked, attempted=1, failed=int(bool(leaked)), leaked=leaked,
            metrics={n: {"value": float(layers.get(n, 0.0)), "unit": u} for n, u in units.items()},
        )
        print(json.dumps(result))
        return 0

    gc.collect()
    start = clock()
    m = workload.measure(args.seconds)
    measured_s = clock() - start
    leaked = workload.teardown()
    failed = min(m.attempted, m.failed + len(leaked))  # a leak is a failed unit
    rss_kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
               + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    values = {
        "setup_s": statistics.median(setups),
        "orders_per_s": m.orders_per_round / m.round_wall_s,
        "dispatch_p50_ms": float(np.percentile(m.units_ms, 50)),
        "dispatch_p90_ms": float(np.percentile(m.units_ms, 90)),
        "serve_rate": m.served / m.submitted,
        "objective_value": m.objective_value,
        "peak_rss_mb": rss_kib / 1024.0,
        "completed_fraction": 1.0 - failed / m.attempted,
    }
    units = {e["name"]: e["unit"] for e in SPEC["end_to_end"]}
    result.update(
        correct=failed == 0, attempted=m.attempted, failed=failed, leaked=leaked,
        metrics={n: {"value": values[n], "unit": u} for n, u in units.items()},
        detail={
            "setup_s": setups,
            "reference_s": reference_s,
            "measured_s": measured_s,
            "walls_s": m.walls_s,
            "round_wall_s": m.round_wall_s,
            "orders_per_round": m.orders_per_round,
            "latency_n": int(m.units_ms.size),
            "latency_quartiles_ms": quartiles(m.units_ms.tolist()),
            "latency_p99_ms": float(np.percentile(m.units_ms, 99)),
            **m.extras,
        },
    )
    print(json.dumps(result))
    return 0


# ----------------------------------------------------------------------
# parent: spawn, print, compare
# ----------------------------------------------------------------------
def run_child(workload: str, args) -> dict:
    """One workload in a fresh process; raises if it printed no result."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--child",
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ] + (["--smoke"] if args.smoke else [])
    done = subprocess.run(
        command, env={**os.environ, **CHILD_ENV}, stdout=subprocess.PIPE, text=True
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload}: child exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def fmt(values, digits: int = 3) -> str:
    return "[" + " ".join(f"{v:.{digits}g}" for v in values) + "]"


def print_result(result: dict) -> None:
    env = result["env"]
    print(f"== {result['workload']}  seed={result['seed']}  seconds={result['seconds']}"
          f"  executor={env['executor']}  transport={env['transport']}"
          f"{'  (smoke)' if result['smoke'] else ''}")
    detail = result.get("detail", {})
    beside = {}
    if detail:
        q = fmt(detail["latency_quartiles_ms"], 4)
        beside = {
            "setup_s": f"n={len(detail['setup_s'])} each={fmt(detail['setup_s'])}",
            "orders_per_s": (f"{detail['orders_per_round']} orders / {detail['round_wall_s']:.4g} s;"
                             f" n={len(detail['walls_s'])} walls_s={fmt(detail['walls_s'])}"),
            "dispatch_p50_ms": f"n={detail['latency_n']} of {result['attempted']} units quartiles={q}",
            "dispatch_p90_ms": f"n={detail['latency_n']} p99={detail['latency_p99_ms']:.4g} (diagnostic)",
        }
    for name, metric in result["metrics"].items():
        print(f"  {name:<46} {metric['value']:>14.6g} {metric['unit']:<9} {beside.get(name, '')}")
    if detail:
        print(f"  reference {detail['reference_s']:.2f} s, measured phase {detail['measured_s']:.2f} s")
        if "paced_orders" in detail:
            print(f"  phase A: {detail['paced_orders']} paced orders, generator lag p99 "
                  f"{detail['generator_lag_p99_ms']:.3g} ms, rotations {fmt(detail['rotate_s'])} s")
    teardown = "clean" if not result["leaked"] else f"LEAKED {result['leaked']}"
    print(f"  attempted={result['attempted']} failed={result['failed']} "
          f"correct={result['correct']}  teardown: {teardown}")
    print("  env: " + " ".join(f"{k}={v}" for k, v in env.items()))


def contract(result: dict) -> dict:
    """The four keys the contract's last line carries."""
    return {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}


def worse_by(entry: dict, a: float, b: float) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a``."""
    gap = (b - a) / abs(a) if a else 0.0
    return gap if entry["better"] == "lower" else -gap


def run_aa(names, args) -> int:
    """N runs as set A and N as set B, interleaved; the two sets run the
    same code, so any gap between their medians is the benchmark's noise."""
    sets = {"A": {n: [] for n in names}, "B": {n: [] for n in names}}
    for i in range(args.aa):
        for side in ("A", "B"):
            for name in names:
                result = run_child(name, args)
                sets[side][name].append(result)
                print(f"# {side}{i + 1} {name}: {json.dumps(contract(result))}", flush=True)
    status = 0
    for name in names:
        print(f"== {name}: A/A over {args.aa} + {args.aa} runs, seed {args.seed}")
        print(f"  {'metric':<20} {'median A':>14} {'median B':>14} {'gap':>9} {'bound':>7}")
        for entry in SPEC["end_to_end"]:
            a, b = (statistics.median(r["metrics"][entry["name"]]["value"] for r in sets[s][name])
                    for s in ("A", "B"))
            gap = max(worse_by(entry, a, b), worse_by(entry, b, a))
            ok = gap <= entry["bound"]
            status |= not ok
            print(f"  {entry['name']:<20} {a:>14.6g} {b:>14.6g} {gap:>8.2%} {entry['bound']:>7.1%}"
                  f"{'' if ok else '  EXCEEDS BOUND'}")
        if any(not r["correct"] for s in sets.values() for r in s[name]):
            status = 1
            print("  a run was incorrect")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, help="default: all four")
    parser.add_argument("--seed", type=int, default=2017)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                        help="nominal length of the measured phase; fixes the round counts")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
                        help="the traced run: per-layer metrics, not end-to-end ones")
    parser.add_argument("--aa", type=int, metavar="N", default=0,
                        help="N runs as set A and N as set B; fail if their medians disagree")
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs, one round (< 5 s a workload); for the tests")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must not be negative")
    if args.child:
        return child(args)
    names = [args.workload] if args.workload else WORKLOAD_NAMES
    if args.aa:
        return run_aa(names, args)
    results = []
    for name in names:
        results.append(run_child(name, args))
        print_result(results[-1])
        sys.stdout.flush()
    if args.workload:
        print(json.dumps(contract(results[0])))
    else:
        print(json.dumps({r["workload"]: contract(r) for r in results}))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
