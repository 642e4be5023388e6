"""Section VI-B small-scale check — exact optimum Z* as the upper bound.

The paper uses CPLEX/MOSEK to compute the exact integer optimum for small
instances (n <= 50, m <= 100) and measures the algorithms against it.  This
benchmark reproduces that check with the open-source HiGHS MILP solver: on a
small instance the greedy, maxMargin and Nearest values are compared against
Z*, and the LP relaxation Z*_f is verified to sit above Z*.
"""

import pytest

from repro.analysis import compute_upper_bound, format_table
from repro.experiments import ExperimentConfig, ExperimentScale, build_workload, run_all
from repro.offline import exact_optimum
from repro.trace import WorkingModel

SMALL_SCALE = ExperimentScale(task_count=60, driver_counts=(12,), trips_generated=600)


@pytest.fixture(scope="module")
def small_instance():
    workload = build_workload(
        ExperimentConfig(scale=SMALL_SCALE, working_model=WorkingModel.HITCHHIKING)
    )
    return workload.instance_with_drivers(12)


@pytest.mark.benchmark(group="exact")
def test_exact_small_scale_check(benchmark, small_instance, save_table):
    exact = benchmark.pedantic(exact_optimum, args=(small_instance,), rounds=1, iterations=1)
    lp = compute_upper_bound(small_instance)
    achieved = {name: result.total_value for name, result in run_all(small_instance).items()}

    rows = [["Z* (exact)", exact.optimum], ["Z*_f (LP relaxation)", lp]]
    rows += [[f"{name}", value] for name, value in achieved.items()]
    rows += [
        [f"ratio Z*/{name}", exact.optimum / value if value > 0 else float("inf")]
        for name, value in achieved.items()
    ]
    save_table(
        "exact_small_scale",
        "Small-scale exact check (n=12 drivers, m=60 tasks)\n"
        + format_table(["quantity", "value"], rows),
    )
    benchmark.extra_info["exact_optimum"] = exact.optimum
    benchmark.extra_info["lp_bound"] = lp

    exact.solution.validate()
    # Bound ordering: every algorithm <= Z* <= Z*_f.
    assert lp >= exact.optimum - 1e-6
    for value in achieved.values():
        assert value <= exact.optimum + 1e-6
    # The greedy algorithm recovers most of the optimum on small instances.
    assert achieved["Greedy"] >= 0.75 * exact.optimum
