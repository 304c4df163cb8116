"""Statement coverage of ``src/santkit`` under the tier-1 tests, stdlib only.

Usage, from the repository root::

    python devtools/linecov.py

Each ``tests/test_*.py`` file runs under pytest in its own interpreter with
a ``sys.settrace`` line tracer.  The statements of every module come from
``ast`` (docstrings, bare annotations and ``global``/``nonlocal``, which
compile to no code inside a function, are left out); a statement counts as executed when any of its own lines ran
(its decorators and header included, its nested statements excluded).  The
script prints the unexecuted statements per module and their total, and
exits 1 when the total rises above ``MAX_UNEXECUTED`` or a test file fails
under the tracer.

A statement that shares its first line with code before it (``if x: raise
E``, ``a; b``) would count as executed whenever that code ran, so the script
first checks that each statement starts a line of its own, names each
``file:line`` that does not, and exits 1 before any test runs.

A deep recursion can make Python drop the tracer, so it is re-armed after
every test.  Hypothesis deadlines are lifted in the traced runs only: the
tracer slows every call, and the examples drawn do not depend on it.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "santkit"

# Every statement runs in tier-1; a change that adds one that does not must
# test it or delete it.
MAX_UNEXECUTED = 0


def _statements(tree: ast.AST):
    """The statements that compile to code: not docstrings, bare
    annotations or ``global``/``nonlocal``."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(
                node, (ast.Global, ast.Nonlocal)):
            continue
        if isinstance(node, ast.AnnAssign) and node.value is None:
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            continue
        yield node


def statement_lines(path: Path) -> dict[int, set[int]]:
    """Each statement's first line mapped to the lines that are its own."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    statements: dict[int, set[int]] = {}
    for node in _statements(tree):
        first = min([node.lineno] + [d.lineno for d in getattr(
            node, "decorator_list", ())])
        own = set(range(first, node.end_lineno + 1))
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.stmt, ast.ExceptHandler)):
                own -= set(range(child.lineno, child.end_lineno + 1))
        statements[first] = own
    return statements


def shared_lines(path: Path) -> list[int]:
    """The lines on which a statement starts after other code."""
    text = path.read_text(encoding="utf-8")
    lines = text.encode("utf-8").splitlines()
    return sorted({node.lineno for node in _statements(ast.parse(text))
                   if lines[node.lineno - 1][:node.col_offset].strip()})


def _worker(test_file: str, out: str) -> int:
    """Run one test file under the tracer; write the executed lines."""
    import pytest

    prefix = str(PACKAGE) + os.sep
    hits: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    class Rearm:
        @staticmethod
        def pytest_sessionstart(session):
            try:
                from hypothesis import settings
            except ImportError:
                return
            settings.register_profile(
                "linecov", settings(settings.default, deadline=None))
            settings.load_profile("linecov")

        @staticmethod
        def pytest_runtest_logfinish(nodeid, location):
            sys.settrace(tracer)

    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", test_file],
                             plugins=[Rearm()])
    finally:
        sys.settrace(None)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(sorted(hits), handle)
    return int(status)


def _run_tests() -> tuple[dict[str, set[int]], list[str]]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    hits: dict[str, set[int]] = {}
    failed: list[str] = []
    with tempfile.TemporaryDirectory() as scratch:
        for test_file in sorted((ROOT / "tests").glob("test_*.py")):
            out = os.path.join(scratch, test_file.stem + ".json")
            run = subprocess.run(
                [sys.executable, __file__, str(test_file), out],
                cwd=ROOT, env=env, stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT, text=True)
            if run.returncode != 0 or not os.path.exists(out):
                failed.append(test_file.name)
                sys.stderr.write(run.stdout)
                continue
            with open(out, encoding="utf-8") as handle:
                for path, line in json.load(handle):
                    hits.setdefault(path, set()).add(line)
    return hits, failed


def _ranges(lines: list[int]) -> str:
    spans: list[list[int]] = []
    for line in lines:
        if spans and spans[-1][1] == line - 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def main() -> int:
    shared = [f"{path.relative_to(ROOT)}:{line}"
              for path in sorted(PACKAGE.glob("*.py"))
              for line in shared_lines(path)]
    if shared:
        for where in shared:
            print(f"{where}: statement does not start its own line")
        return 1
    hits, failed = _run_tests()
    total_statements = total_missed = 0
    print(f"{'module':28} {'stmts':>6} {'unexec':>6}  unexecuted lines")
    for path in sorted(PACKAGE.glob("*.py")):
        statements = statement_lines(path)
        ran = hits.get(str(path), set())
        missed = sorted(first for first, own in statements.items()
                        if not own & ran)
        total_statements += len(statements)
        total_missed += len(missed)
        print(f"{path.name:28} {len(statements):>6} {len(missed):>6}  "
              f"{_ranges(missed)}")
    print(f"{'total':28} {total_statements:>6} {total_missed:>6}")
    if failed:
        print(f"test files that failed under the tracer: {', '.join(failed)}")
        return 1
    if total_missed > MAX_UNEXECUTED:
        print(f"{total_missed} unexecuted statements, above the checked-in "
              f"{MAX_UNEXECUTED}: test them or delete them")
        return 1
    return 0


if __name__ == "__main__":
    if len(sys.argv) == 3:
        sys.exit(_worker(*sys.argv[1:]))
    sys.exit(main())
