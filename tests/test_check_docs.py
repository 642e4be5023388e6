"""The docs gate's named-code check (``scripts/check_docs.py``, check 4):
a backticked ``Class.attr`` chain must name a member of that class."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "check_docs.py"
_spec = importlib.util.spec_from_file_location("check_docs", SCRIPT)
check_docs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_docs)

DOC = check_docs.REPO_ROOT / "docs" / "probe.md"


@pytest.fixture(scope="module")
def code():
    return check_docs.code_names()


def problems(code, text):
    names, classes = code
    return check_docs.check_named_code(DOC, text, names, classes)


class TestNamedCodeChains:
    def test_a_deleted_member_is_reported_once(self, code):
        found = problems(code, "`FanOutReport.mean_wait_s` and `FanOutReport.mean_wait_s`")
        assert found == [
            "docs/probe.md: names a member its class does not define "
            "-> FanOutReport.mean_wait_s"
        ]

    @pytest.mark.parametrize(
        "chain",
        [
            "FanOutReport.shard_skew",  # a property
            "FanOutReport.per_shard_task_counts",  # a dataclass field
            "ZonePartition.region",  # a self. assignment
            "DistributedCoordinator.partitioner.zones",  # only the first .attr counts
            "BENCH_scenarios.json",  # an allowed name, not a class
        ],
    )
    def test_live_members_pass(self, code, chain):
        assert problems(code, f"`{chain}`") == []

    def test_members_are_found_on_bases_by_name(self):
        classes = {"Child": [({"own"}, ["Base"])], "Base": [({"inherited"}, ["object"])]}
        assert check_docs.has_member(classes, "Child", "inherited", set())
        assert not check_docs.has_member(classes, "Child", "missing", set())

    def test_an_undefined_head_is_reported(self, code):
        assert problems(code, "`LoadAwarePartitioner`") == [
            "docs/probe.md: names code defined nowhere -> LoadAwarePartitioner"
        ]
