"""The benchmark's contract, checked on ``--smoke`` runs."""

from __future__ import annotations

import os
import re

import workloads


def sections(lines):
    """Printed lines grouped by workload."""
    grouped, current = {}, None
    for line in lines:
        if line.startswith("== "):
            current = grouped.setdefault(line.split()[1], [])
        elif current is not None:
            current.append(line)
    return grouped


def test_every_end_to_end_metric_is_printed_once_per_workload_with_its_unit(smoke, spec):
    lines, last = smoke("--seed", "2017")
    grouped = sections(lines)
    assert list(grouped) == [w["name"] for w in spec["workloads"]]
    assert len(spec["workloads"]) == 4 and len(spec["end_to_end"]) == 8
    for workload, body in grouped.items():
        for entry in spec["end_to_end"]:
            hits = [ln.split() for ln in body if ln.split()[:1] == [entry["name"]]]
            assert len(hits) == 1, (workload, entry["name"])
            assert hits[0][2] == entry["unit"]
        metrics = last[workload]["metrics"]
        assert set(metrics) == {e["name"] for e in spec["end_to_end"]}
        assert metrics["setup_s"]["value"] > 0


def test_no_unit_fails_and_teardown_is_clean(smoke):
    lines, last = smoke("--seed", "2017")
    for workload, result in last.items():
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert result["metrics"]["completed_fraction"]["value"] == 1.0
    assert sum("teardown: clean" in line for line in lines) == 4


def test_outcome_metrics_repeat_at_one_seed_and_move_with_the_seed(smoke):
    _, first = smoke("--seed", "2017")
    _, again = smoke("--seed", "2017", "--seconds", "1")  # a second, distinct run
    _, other = smoke("--seed", "2018")
    for workload in first:
        for name in ("serve_rate", "objective_value"):
            value = first[workload]["metrics"][name]["value"]
            assert value == again[workload]["metrics"][name]["value"], (workload, name)
        assert (first[workload]["metrics"]["objective_value"]["value"]
                != other[workload]["metrics"]["objective_value"]["value"])


def test_per_layer_names_are_well_formed_and_all_reported(smoke, spec):
    _, last = smoke("--seed", "2017", "--trace", "1")
    names = [m["name"] for m in spec["per_layer"]]
    assert all(re.fullmatch(r"[A-Za-z0-9_.-]+", name) for name in names)
    for workload, result in last.items():
        assert list(result["metrics"]) == names, workload


def test_round_counts_come_from_the_command_line_alone():
    assert [workloads.repeats(20, w.round_s, False) for w in workloads.WORKLOADS.values()] == [13, 3, 4, 6]
    assert workloads.repeats(10, workloads.ServicePaced.round_s, False) == 3
    assert workloads.repeats(0.5, 6.0, False) == 2 and workloads.repeats(0.5, 6.0, False, least=1) == 1
    assert workloads.repeats(60, 6.0, True) == 1


def test_every_service_epoch_replays_the_same_orders_and_is_checked():
    workload = workloads.ServicePaced(2017, smoke=True)
    workload.setup()
    try:
        measurement = workload.measure(0)
        assert measurement.failed == 0 and measurement.attempted == 2 * measurement.orders_per_round
        for runtime in workload.service.runtimes().values():
            whole = [r for r in runtime.results if r.solution.instance.task_count == workload.per_epoch]
            assert len(whole) == 2  # one paced, one flooded
            assert len({workloads.fingerprint(r.solution, r.rejected_tasks) for r in whole}) == 1
    finally:
        assert workload.teardown() == []


def test_a_corrupted_reference_fails_every_unit_it_covers():
    workload = workloads.StreamDay(2017, smoke=True)
    workload.setup()
    try:
        workload.reference()
        assert workload.measure(0).failed == 0
        workload.expected[0] = "not the fingerprint"
        measurement = workload.measure(0)
        assert measurement.failed == measurement.attempted > 0
    finally:
        assert workload.teardown() == []


def test_a_leaked_segment_is_reported():
    name = f"repro-shm-{os.getpid()}-test-leak"
    path = os.path.join("/dev/shm", name)
    with open(path, "w"):
        pass
    try:
        assert workloads.leaks() == [path]
    finally:
        os.unlink(path)
    assert workloads.leaks() == []
