"""Compare a regenerated benchmark artifact with a committed one.

    python scripts/compare_bench_json.py COMMITTED.json REGENERATED.json

Timing fields (any key ending in ``_wall_s``, and ``wall_clock_s``) and
``cpu_count`` are skipped.  Booleans, integers, strings and the shape of
every dict and list must be equal; floats must agree to a relative 1e-9.
Prints every differing field and exits 1 if there is any, else exits 0.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path
from typing import Iterator, List

REL_TOL = 1e-9
SKIPPED_KEYS = ("wall_clock_s", "cpu_count")


def _skipped(key: str) -> bool:
    return key in SKIPPED_KEYS or key.endswith("_wall_s")


def differences(expected, actual, path: str = "$") -> Iterator[str]:
    """Yield one line per field where ``actual`` differs from ``expected``."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        for key in sorted(set(expected) | set(actual)):
            if _skipped(key):
                continue
            where = f"{path}.{key}"
            if key not in actual:
                yield f"{where}: missing from the regenerated artifact"
            elif key not in expected:
                yield f"{where}: not in the committed artifact"
            else:
                yield from differences(expected[key], actual[key], where)
    elif isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            yield f"{path}: length {len(expected)} != {len(actual)}"
            return
        for index, (left, right) in enumerate(zip(expected, actual)):
            yield from differences(left, right, f"{path}[{index}]")
    elif isinstance(expected, float) and isinstance(actual, float):
        if not math.isclose(expected, actual, rel_tol=REL_TOL, abs_tol=0.0):
            yield f"{path}: {expected!r} != {actual!r}"
    elif type(expected) is not type(actual) or expected != actual:
        yield f"{path}: {expected!r} != {actual!r}"


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    committed, regenerated = (json.loads(Path(p).read_text(encoding="utf-8")) for p in argv)
    found = list(differences(committed, regenerated))
    for line in found:
        print(line)
    print(f"{len(found)} differing field(s) between {argv[0]} and {argv[1]}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
