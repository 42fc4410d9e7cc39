"""Print each statement of a package that no test executes, and fail on
any that is not on the allowlist.

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
a frame object for every call it sees; so the default arguments deselect
`test_a_warm_recognition_leaves_no_reference_cycles`, which counts those
frames as garbage and which the plain suite still runs.

The allowlist is `untested_lines_allowed.json` beside this file: a JSON
list of objects with a `path` (relative to the directory the tool runs
from, with `/` separators), a `statement` (the first line of its source,
stripped, as printed) and a one-line `reason` that no test runs it. A
listed statement is printed with `# allowed:` and its reason. Keying by
text, not line number, keeps an entry valid while lines above it move.

Usage: python tools/untested_lines.py [SOURCE_DIR [PYTEST_ARG ...]]

SOURCE_DIR defaults to src/tgr, and its parent directory is put first
on `sys.path` and on `PYTHONPATH`, for the tests' subprocesses. The
pytest arguments default to the tier-1 suite's, with Hypothesis's seed
fixed and that test deselected (`_TIER_1`). Run it from the repository
root, since some tests open data by repository-relative paths. The exit
status is pytest's when pytest fails, else 1 when a statement that no
test runs is not on the allowlist, else 0.
"""

from __future__ import annotations

import ast
import json
import os
import sys
import threading

# The tier-1 suite's arguments, with Hypothesis's seed fixed so that two
# runs draw the same examples and report the same statements, less the
# one test that the tracer's frames fail.
_TIER_1 = ["-q", "--continue-on-collection-errors", "--hypothesis-seed=0",
           "--deselect", "tests/test_recognizer.py::"
           "test_a_warm_recognition_leaves_no_reference_cycles"]

ALLOWLIST = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "untested_lines_allowed.json")


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


def untested(source_dir: str,
             hits: dict[str, set[int]]) -> list[tuple[str, int, str]]:
    """`(path, line, source)` for each statement under `source_dir` none
    of whose lines is in `hits`, keyed by absolute path; `source` is the
    statement's first line, stripped."""
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
                    out.append((path, first, text[first - 1].strip()))
    return out


def load_allowlist(path: str) -> dict[tuple[str, str], str]:
    """The reason for each allowed `(path, statement)`; an entry without
    a reason is an error."""
    with open(path, encoding="utf-8") as fh:
        entries = json.load(fh)
    allowed = {}
    for entry in entries:
        key = (entry["path"], entry["statement"])
        if not entry.get("reason"):
            raise SystemExit(f"{path}: no reason given for {key}")
        allowed[key] = entry["reason"]
    return allowed


def main(argv: list[str]) -> int:
    import pytest

    allowed = load_allowlist(ALLOWLIST)
    source_dir = argv[0] if argv else os.path.join("src", "tgr")
    parent = os.path.dirname(os.path.abspath(source_dir))
    sys.path.insert(0, parent)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, (parent, os.environ.get("PYTHONPATH"))))
    tracer = LineTracer(source_dir)
    status = pytest.main(argv[1:] or _TIER_1, plugins=[tracer])
    unlisted = 0
    for path, line, text in untested(source_dir, tracer.hits):
        reason = allowed.get((os.path.relpath(path).replace(os.sep, "/"),
                              text))
        if reason is None:
            unlisted += 1
            print(f"{path}:{line}: {text}")
        else:
            print(f"{path}:{line}: {text}  # allowed: {reason}")
    if unlisted:
        print(f"{unlisted} statement(s) that no test runs are not in "
              f"{ALLOWLIST}", file=sys.stderr)
    return int(status) or int(unlisted > 0)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
