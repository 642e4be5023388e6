"""The docs gate (``scripts/check_docs.py``): check 4, a backticked
``Class.attr`` chain must name a member of that class; check 6, every public
name in ``src/repro`` has a reader outside ``tests/``."""

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


def plant(root, files):
    """Write ``{relative path: text}`` under ``root``; every reader root
    exists, empty or not."""
    for reader_root in check_docs.READER_ROOTS:
        (root / reader_root).mkdir(parents=True, exist_ok=True)
    for relative, text in files.items():
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


MODULE = """\
def read_fn():
    return 1


def unread_fn():
    return 2


class Thing:
    def read_method(self):
        return 3

    @property
    def unread_property(self):
        return 4

    def _private(self):
        return 5
"""


class TestUnreadPublicNames:
    def test_head_tree_passes(self):
        assert check_docs.check_unread_names() == []

    def test_the_allowlist_is_short(self):
        assert len(check_docs.UNREAD_NAMES_ALLOWED) <= 8

    def test_an_unread_function_and_method_give_one_line_each(self, tmp_path):
        root = plant(tmp_path, {
            "src/repro/pkg/mod.py": MODULE,
            "scripts/run.py": "from repro.pkg.mod import Thing, read_fn\nThing().read_method()\n",
        })
        assert check_docs.check_unread_names(root, allowed=()) == [
            "src/repro/pkg/mod.py:5: public name has no reader outside tests -> unread_fn",
            "src/repro/pkg/mod.py:14: public name has no reader outside tests "
            "-> Thing.unread_property",
        ]

    @pytest.mark.parametrize(
        "reader",
        [
            "tests/test_mod.py",  # tests do not count
            "src/repro/__init__.py",  # nor do the package re-exports
            "src/repro/pkg/__init__.py",
        ],
    )
    def test_a_name_read_only_by_tests_or_a_reexport_is_reported(self, tmp_path, reader):
        root = plant(tmp_path, {
            "src/repro/pkg/mod.py": "def lonely():\n    return 1\n",
            reader: "from repro.pkg.mod import lonely\n__all__ = ['lonely']\nlonely()\n",
        })
        assert check_docs.check_unread_names(root, allowed=()) == [
            "src/repro/pkg/mod.py:1: public name has no reader outside tests -> lonely"
        ]

    def test_a_reader_under_any_reader_root_counts(self, tmp_path):
        files = {"src/repro/pkg/mod.py": "def lonely():\n    return 1\n"}
        for reader_root in check_docs.READER_ROOTS:
            root = plant(tmp_path / reader_root, {**files, f"{reader_root}/use.py": "lonely()\n"})
            assert check_docs.check_unread_names(root, allowed=()) == []

    def test_an_allowlisted_name_passes(self, tmp_path):
        root = plant(tmp_path, {
            "src/repro/pkg/mod.py": MODULE,
            "examples/use.py": "Thing().read_method(); read_fn()\n",
        })
        allowed = ("unread_fn", "Thing.unread_property")
        assert check_docs.check_unread_names(root, allowed=allowed) == []
