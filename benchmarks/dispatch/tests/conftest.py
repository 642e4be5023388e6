"""Shared by the benchmark's own tests: run ``run.py --smoke`` once per
distinct command line and hand every test the parsed output.

Run with ``PYTHONPATH=src python -m pytest benchmarks/dispatch/tests``.
"""

from __future__ import annotations

import functools
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))  # ``import spans, workloads`` as run.py does


@functools.lru_cache(maxsize=None)
def _run(*args: str):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", *args],
        capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.fixture(scope="session")
def smoke():
    """``smoke(*args)`` -> (printed lines, the last line parsed), all four
    workloads; cached, so a command line runs once per test session."""
    return _run


@pytest.fixture(scope="session")
def spec():
    return json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
