"""Print each statement of a package that no test executes.

Runs pytest in this process under a line tracer (`sys.settrace` and
`threading.settrace`, installed by a pytest plugin before the first
conftest is imported and removed when pytest unconfigures), then prints
every statement of SOURCE_DIR's modules whose lines never ran, as
`path:line: source`, sorted by path and line. A bare constant (a
docstring or `...`) is not a statement here, since it compiles to
nothing; nor is `global` or `nonlocal`. Code that tests run in a
subprocess is not seen, nor is what a test runs after it exhausts the
interpreter's stack, which switches the tracer off until the next test.
A test that counts cyclic garbage can fail under the tracer, which makes
a frame object for every call it sees.

Usage: python tools/untested_lines.py [SOURCE_DIR [PYTEST_ARG ...]]

SOURCE_DIR defaults to src/tgr, and its parent directory is put first
on `sys.path` and on `PYTHONPATH`, for the tests' subprocesses. The
pytest arguments default to the tier-1 suite's, with Hypothesis's seed
fixed (`_TIER_1`). Run it from the repository root, since some tests
open data by repository-relative paths. The exit status is pytest's.
"""

from __future__ import annotations

import ast
import os
import sys
import threading

# The tier-1 suite's arguments, with Hypothesis's seed fixed so that two
# runs draw the same examples and report the same statements.
_TIER_1 = ["-q", "--continue-on-collection-errors", "--hypothesis-seed=0"]


def statement_lines(tree: ast.AST) -> dict[int, range]:
    """Per statement of `tree`, keyed by its first line, the lines whose
    execution shows that it ran: all of a simple statement's lines, a
    compound statement's header with its decorators, and for a `try`
    the first statement of its body."""
    found: dict[int, range] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(
                node, (ast.Global, ast.Nonlocal)):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value,
                                                     ast.Constant):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(
            node, "decorator_list", ())])
        body = getattr(node, "body", None)
        if isinstance(node, ast.Try):
            lines = range(node.body[0].lineno, node.body[0].end_lineno + 1)
        elif body:
            lines = range(first, max(body[0].lineno, node.lineno + 1))
        else:
            lines = range(first, node.end_lineno + 1)
        found[first] = lines
    return found


class LineTracer:
    """A pytest plugin that records the lines run in files under `root`.

    A code object is traced until each of its lines has run, save its
    first (a `def` line, which only runs in the enclosing frame), so hot
    code that tests cover whole runs untraced after its first passes.
    """

    def __init__(self, root: str) -> None:
        self.root = os.path.abspath(root) + os.sep
        self.hits: dict[str, set[int]] = {}
        # Keyed by path and code object: equal code objects of two files
        # compare equal.
        self._left: dict[tuple[str, object], set[int]] = {}

    def _call(self, frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(self.root):
            return None
        key = (code.co_filename, code)
        left = self._left.get(key)
        if left is None:
            left = self._left[key] = {line for _, _, line in code.co_lines()}
            left -= {None, code.co_firstlineno}
        if not left:
            return None
        hits = self.hits.setdefault(code.co_filename, set())

        def line(frame, event, arg):
            if event == "line":
                hits.add(frame.f_lineno)
                left.discard(frame.f_lineno)
            return line
        return line

    def pytest_load_initial_conftests(self):
        sys.settrace(self._call)
        threading.settrace(self._call)

    def pytest_runtest_setup(self):
        # CPython unsets a trace function that raises, as it does when a
        # test exhausts the interpreter's stack; start again for the next.
        if sys.gettrace() is None:
            self.pytest_load_initial_conftests()

    def pytest_unconfigure(self):
        sys.settrace(None)
        threading.settrace(None)


def untested(source_dir: str, hits: dict[str, set[int]]) -> list[str]:
    """`path:line: source` for each statement under `source_dir` none of
    whose lines is in `hits`, keyed by absolute path."""
    out = []
    for root, dirs, files in os.walk(source_dir):
        dirs.sort()
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(root, name)
            with open(path, encoding="utf-8") as fh:
                source = fh.read()
            ran = hits.get(os.path.abspath(path), set())
            text = source.splitlines()
            for first, lines in sorted(
                    statement_lines(ast.parse(source)).items()):
                if ran.isdisjoint(lines):
                    out.append(f"{path}:{first}: {text[first - 1].strip()}")
    return out


def main(argv: list[str]) -> int:
    import pytest

    source_dir = argv[0] if argv else os.path.join("src", "tgr")
    parent = os.path.dirname(os.path.abspath(source_dir))
    sys.path.insert(0, parent)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, (parent, os.environ.get("PYTHONPATH"))))
    tracer = LineTracer(source_dir)
    status = pytest.main(argv[1:] or _TIER_1, plugins=[tracer])
    for line in untested(source_dir, tracer.hits):
        print(line)
    return int(status)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
