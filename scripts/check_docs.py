#!/usr/bin/env python3
"""Docs gate: link/reference check over ``docs/`` + README, a reader for
every public name in ``src/repro``, and execute the README quickstart snippet.

Six checks, so the project's front door cannot rot:

1. **Markdown links** — every relative link target in ``README.md`` and
   ``docs/*.md`` must exist on disk (external ``http(s)`` links are left
   alone: CI should not fail on someone else's outage).
2. **Backticked path references** — prose like ``tests/distributed/...`` or
   ``benchmarks/results/BENCH_*.json`` is treated as a reference when it
   contains a ``/`` and looks like a repo path; the file (or, for globs, at
   least one match) must exist.  Docs that name a test pinning a contract
   stay honest this way.
3. **Cited test names** — after a backticked ``tests/…py`` or
   ``benchmarks/…py`` path, every backticked ``Test…`` / ``test_…`` name in
   the parenthesis that follows it must be defined in that file, and so
   must every name of a backticked ``path.py::Name`` reference (a function,
   class or module-level assignment; ``::``-chained names each).  A renamed
   or deleted test cannot leave a contract row citing it.
4. **Named code** — every backticked CamelCase name, bare or with a
   ``.attr`` chain (``FanOutReport``, ``MarketSolution.mean_wait_s``), must be
   defined — a class, function or assignment — somewhere under ``src/``,
   ``tests/``, ``benchmarks/`` or ``scripts/``, except the names in
   :data:`UNDEFINED_NAMES_ALLOWED`.  When the name is a class, the chain's
   first ``.attr`` must be one of its members — a method, a field, or a
   class-level or ``self.`` assignment — or a member of a base class,
   followed by name.  A deleted class or method cannot linger in prose.
5. **Quickstart execution** — the first ``python`` code block in the README
   is extracted and executed with ``src/`` on the path; the snippet every
   new reader copy-pastes must actually run.
6. **Unread public names** — every public top-level function or class in
   ``src/repro/**/*.py``, and every public method or property of a public
   class, must have a reader: a whole-word occurrence of its name in a
   Python file under :data:`READER_ROOTS`.  The name's own ``def`` /
   ``class`` line, the ``src/repro/**/__init__.py`` re-exports and
   ``tests/`` are not readers; :data:`UNREAD_NAMES_ALLOWED` names the few
   kept on purpose.  Code only tests call cannot accrete in ``src/``.

Exit code 0 when everything holds, 1 with a per-finding report otherwise.
Run from anywhere: ``python scripts/check_docs.py``.
"""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DOC_FILES = [REPO_ROOT / "README.md", *sorted((REPO_ROOT / "docs").glob("*.md"))]

MARKDOWN_LINK = re.compile(r"\[[^\]]*\]\(([^)#\s]+)(?:#[^)\s]*)?\)")
BACKTICK_REF = re.compile(r"`([^`\s]+)`")
#: Path-looking backticked tokens: contain a slash and end in a known
#: extension (or a trailing slash for directories).
PATH_SUFFIXES = (".py", ".md", ".json", ".txt", ".yml", ".csv", "/")
#: A backticked test or benchmark file and the parenthesis right after it.
CITED_FILE = re.compile(r"`((?:tests|benchmarks)/[^`\s]+\.py)`\s*\(([^()]*)\)")
#: A backticked test name (``Test…`` / ``test_…``, ``::``-chained allowed).
TEST_NAME = re.compile(r"`((?:Test|test_)\w*(?:::\w+)*)`")
#: A backticked ``path.py::Name[::Name...]`` reference.
QUALIFIED_REF = re.compile(r"`([^`\s]+\.py)((?:::\w+)+)`")
#: A backticked CamelCase name — a capital first, a lower-case letter
#: somewhere (so ``REPRO_LOG`` and ``D`` are not names) — with an optional
#: ``.attr`` chain, whose first attribute is captured.
CAMEL_NAME = re.compile(r"`([A-Z][A-Za-z0-9_]*[a-z][A-Za-z0-9_]*)(?:\.(\w+))?(?:\.\w+)*`")
#: Where the named code lives.
CODE_ROOTS = ("src", "tests", "benchmarks", "scripts")
#: CamelCase names the docs may cite without a definition in the code.
UNDEFINED_NAMES_ALLOWED = (
    # Benchmark artifact stems (``benchmarks/results/<stem>.json``).
    re.compile(r"BENCH_\w+"),
    # Standard-library classes.
    re.compile(r"QueueListener"),
    # Names the docs cite as deleted (retired parity contract 5).
    re.compile(r"ShardPayload"),
)
#: Where a public name's readers live; ``tests/`` is not one of them.
READER_ROOTS = ("src", "benchmarks", "examples", "scripts")
#: A ``def`` / ``class`` line and the name it defines, which it does not read.
DEF_LINE = re.compile(r"\s*(?:async\s+def|def|class)\s+(\w+)")
WORD = re.compile(r"\w+")
#: Public names kept without a reader outside tests (``Class.method`` for a
#: method), each for the reason above it.
UNREAD_NAMES_ALLOWED = (
    # Reads the real ECML/PKDD-15 file that docs/architecture.md documents.
    "load_porto_trips",
    # The other half of save_solution's round trip.
    "load_solution",
    # The leak tests' handle on /dev/shm; it leaves with the shm transport.
    "ShmShipper.segment_prefix",
    # Theorem 1's 1/(D+1), which tests/offline/test_greedy.py pins.
    "TightExample.expected_ratio",
    # Read by the tests/*_oracle.py reference implementations.
    "DriverTaskMap.successors_of",
    "Task.ride_window_s",
    "TravelModel.travel_time_s",
)


def check_links(path: Path, text: str) -> list[str]:
    problems = []
    for target in MARKDOWN_LINK.findall(text):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        resolved = (path.parent / target).resolve()
        if not resolved.exists():
            problems.append(f"{path.relative_to(REPO_ROOT)}: broken link -> {target}")
    return problems


def check_path_references(path: Path, text: str) -> list[str]:
    problems = []
    for token in BACKTICK_REF.findall(text):
        if "/" not in token or not token.endswith(PATH_SUFFIXES):
            continue
        candidate = token.rstrip("/")
        # Docs name library packages by their layer shorthand (`geo/`,
        # `market/streaming.py`): resolve against src/repro/ too.
        roots = (REPO_ROOT, REPO_ROOT / "src" / "repro")
        if any(ch in candidate for ch in "*?["):
            if not any(list(root.glob(candidate)) for root in roots):
                problems.append(
                    f"{path.relative_to(REPO_ROOT)}: glob reference matches nothing -> {token}"
                )
        elif not any((root / candidate).exists() for root in roots):
            problems.append(
                f"{path.relative_to(REPO_ROOT)}: dangling path reference -> {token}"
            )
    return problems


def _resolve(candidate: str) -> Path | None:
    """A repo path, or a library path in the docs' layer shorthand."""
    for root in (REPO_ROOT, REPO_ROOT / "src" / "repro"):
        if (root / candidate).is_file():
            return root / candidate
    return None


def defined_names(source: Path) -> set[str]:
    """Every function, class and assigned name a Python file defines."""
    return tree_names(ast.parse(source.read_text(encoding="utf-8")))


def tree_names(tree: ast.AST) -> set[str]:
    """Every function, class and assigned name a parsed file defines."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def check_cited_names(path: Path, text: str) -> list[str]:
    cited: list[tuple[str, str]] = []
    for file, parenthesis in CITED_FILE.findall(text):
        for name in TEST_NAME.findall(parenthesis):
            cited.extend((file, part) for part in name.split("::"))
    for file, chain in QUALIFIED_REF.findall(text):
        cited.extend((file, part) for part in chain.split("::")[1:])
    problems = []
    cache: dict[str, set[str] | None] = {}
    for file, name in cited:
        if file not in cache:
            source = _resolve(file)
            cache[file] = defined_names(source) if source is not None else None
        names = cache[file]
        if names is None:
            problem = f"cites a name in a missing file -> {file}::{name}"
        elif name not in names:
            problem = f"dangling test or name reference -> {file}::{name}"
        else:
            continue
        problems.append(f"{path.relative_to(REPO_ROOT)}: {problem}")
    return problems


def class_members(node: ast.ClassDef) -> set[str]:
    """A class's methods, fields, nested classes and class-level or
    ``self.`` assignments."""
    members: set[str] = set()
    for item in node.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            members.add(item.name)
    for item in ast.walk(node):
        if isinstance(item, ast.Assign):
            targets = item.targets
        elif isinstance(item, (ast.AnnAssign, ast.AugAssign)):
            targets = [item.target]
        else:
            continue
        for target in targets:
            for leaf in ast.walk(target):
                if isinstance(leaf, ast.Name) and item in node.body:
                    members.add(leaf.id)
                elif (
                    isinstance(leaf, ast.Attribute)
                    and isinstance(leaf.value, ast.Name)
                    and leaf.value.id == "self"
                ):
                    members.add(leaf.attr)
    return members


def code_names() -> tuple[set[str], dict[str, list[tuple[set[str], list[str]]]]]:
    """Every name defined by a Python file under :data:`CODE_ROOTS`, and
    every class definition among them by name: its members and the names
    of its bases."""
    names: set[str] = set()
    classes: dict[str, list[tuple[set[str], list[str]]]] = {}
    for root in CODE_ROOTS:
        for source in sorted((REPO_ROOT / root).rglob("*.py")):
            tree = ast.parse(source.read_text(encoding="utf-8"))
            names |= tree_names(tree)
            for node in ast.walk(tree):
                if isinstance(node, ast.ClassDef):
                    bases = [
                        base.id if isinstance(base, ast.Name) else base.attr
                        for base in node.bases
                        if isinstance(base, (ast.Name, ast.Attribute))
                    ]
                    classes.setdefault(node.name, []).append((class_members(node), bases))
    return names, classes


def has_member(classes, name: str, attr: str, seen: set[str]) -> bool:
    """Whether any class called ``name``, or a base of one, defines ``attr``."""
    if name in seen:
        return False
    seen.add(name)
    return any(
        attr in members or any(has_member(classes, base, attr, seen) for base in bases)
        for members, bases in classes.get(name, ())
    )


def check_named_code(path: Path, text: str, names: set[str], classes) -> list[str]:
    problems = []
    for name, attr in dict.fromkeys(CAMEL_NAME.findall(text)):
        if any(p.fullmatch(name) for p in UNDEFINED_NAMES_ALLOWED):
            continue
        if name not in names:
            problem = f"names code defined nowhere -> {name}"
        elif attr and name in classes and not has_member(classes, name, attr, set()):
            problem = f"names a member its class does not define -> {name}.{attr}"
        else:
            continue
        problems.append(f"{path.relative_to(REPO_ROOT)}: {problem}")
    # A head cited bare and with a chain is one finding.
    return list(dict.fromkeys(problems))


def public_names(root: Path) -> list[tuple[Path, int, str]]:
    """Every public top-level function or class under ``root/src/repro``, and
    every public method or property of a public class, as ``(file, line,
    name)``; a method is named ``Class.method``."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = []
    for source in sorted((root / "src" / "repro").rglob("*.py")):
        for node in ast.parse(source.read_text(encoding="utf-8")).body:
            if not isinstance(node, (*defs, ast.ClassDef)) or node.name.startswith("_"):
                continue
            found.append((source, node.lineno, node.name))
            if isinstance(node, ast.ClassDef):
                found.extend(
                    (source, item.lineno, f"{node.name}.{item.name}")
                    for item in node.body
                    if isinstance(item, defs) and not item.name.startswith("_")
                )
    return found


def read_words(root: Path) -> Counter[str]:
    """Every whole word of the Python files under :data:`READER_ROOTS`, less
    the name each ``def`` / ``class`` line defines, the ``src/repro``
    ``__init__`` re-exports and this script (its allowlist reads nothing)."""
    words: Counter[str] = Counter()
    for reader_root in READER_ROOTS:
        for source in sorted((root / reader_root).rglob("*.py")):
            if source.resolve() == Path(__file__).resolve() or (
                reader_root == "src" and source.name == "__init__.py"
            ):
                continue
            for line in source.read_text(encoding="utf-8").splitlines():
                line_words = WORD.findall(line)
                defined = DEF_LINE.match(line)
                if defined:
                    line_words.remove(defined.group(1))
                words.update(line_words)
    return words


def check_unread_names(root: Path = REPO_ROOT, allowed=UNREAD_NAMES_ALLOWED) -> list[str]:
    words = read_words(root)
    return [
        f"{source.relative_to(root)}:{line}: public name has no reader outside tests -> {name}"
        for source, line, name in public_names(root)
        if not words[name.rpartition(".")[2]] and name not in allowed
    ]


def extract_quickstart(readme_text: str) -> str | None:
    match = re.search(r"```python\n(.*?)```", readme_text, flags=re.DOTALL)
    return match.group(1) if match else None


def run_quickstart(snippet: str) -> list[str]:
    with tempfile.NamedTemporaryFile(
        "w", suffix="_quickstart.py", delete=False, dir=REPO_ROOT
    ) as handle:
        handle.write(snippet)
        script = Path(handle.name)
    try:
        src = str(REPO_ROOT / "src")
        inherited = os.environ.get("PYTHONPATH")
        proc = subprocess.run(
            [sys.executable, str(script)],
            cwd=REPO_ROOT,
            env={
                **os.environ,
                "PYTHONPATH": f"{src}{os.pathsep}{inherited}" if inherited else src,
            },
            capture_output=True,
            text=True,
            timeout=600,
        )
    finally:
        script.unlink(missing_ok=True)
    if proc.returncode != 0:
        return [
            "README quickstart snippet failed "
            f"(exit {proc.returncode}):\n{proc.stdout}{proc.stderr}"
        ]
    return []


def main() -> int:
    problems: list[str] = []
    names, classes = code_names()
    for path in DOC_FILES:
        text = path.read_text(encoding="utf-8")
        problems += check_links(path, text)
        problems += check_path_references(path, text)
        problems += check_cited_names(path, text)
        problems += check_named_code(path, text, names, classes)
    problems += check_unread_names()

    readme_text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    snippet = extract_quickstart(readme_text)
    if snippet is None:
        problems.append("README.md has no ```python quickstart block to execute")
    else:
        problems += run_quickstart(snippet)

    if problems:
        print(f"docs check: {len(problems)} problem(s)", file=sys.stderr)
        for problem in problems:
            print(f"  - {problem}", file=sys.stderr)
        return 1
    checked = ", ".join(str(p.relative_to(REPO_ROOT)) for p in DOC_FILES)
    print(f"docs check OK ({checked}; every public name read; quickstart executed)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
