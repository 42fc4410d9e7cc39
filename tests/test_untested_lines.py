"""The statement tracer of tools/untested_lines.py, run on a toy package."""

import json
import os
import shutil
import subprocess
import sys

_TOOL = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                     "tools", "untested_lines.py")

MODULE = '''"""A toy module."""

import functools


def used(x):
    """A docstring."""
    try:
        y = x + 1
    except TypeError:
        raise ValueError(
            "not a number")
    while True:
        if y > 2:
            break
        y += 1
    for _ in range(0):
        pass
    return (
        y)


@functools.lru_cache
def decorated(x):
    ...


def unused():
    global G
    G = 1
    return [
        i for i in range(3)]


class C:
    x: int
    y = 2

    def method(self):
        if self.y:
            pass
        elif self.x:
            return 1
        else:
            return 2
'''

TEST = '''from toy import mod


def test_used():
    assert mod.used(1) == 3
    assert mod.C().method() is None
'''


def toy_package(root):
    (root / "src" / "toy").mkdir(parents=True)
    (root / "src" / "toy" / "__init__.py").write_text("")
    (root / "src" / "toy" / "mod.py").write_text(MODULE)
    (root / "tests").mkdir()
    (root / "tests" / "test_mod.py").write_text(TEST)


def run_tool(root, tool=_TOOL):
    return subprocess.run(
        [sys.executable, tool, os.path.join("src", "toy"), "-q",
         "-p", "no:cacheprovider", "tests"],
        cwd=root, capture_output=True, text=True)


PATH = os.path.join("src", "toy", "mod.py")
UNTESTED = [
    f"{PATH}:11: raise ValueError(",
    f"{PATH}:18: pass",
    f"{PATH}:30: G = 1",
    f"{PATH}:31: return [",
    f"{PATH}:42: elif self.x:",
    f"{PATH}:43: return 1",
    f"{PATH}:45: return 2",
]


def test_prints_each_statement_that_no_test_ran(tmp_path):
    toy_package(tmp_path)
    proc = run_tool(tmp_path)
    report = proc.stdout.splitlines()
    # pytest's own lines come first
    assert report[-7:] == UNTESTED
    assert not any(line.startswith(PATH) for line in report[:-7])
    # none of them is on the allowlist
    assert proc.returncode == 1
    assert "7 statement(s) that no test runs are not in" in proc.stderr


def allowlisting(root, lines):
    """A copy of the tool under `root`, whose allowlist names `lines`."""
    (root / "tools").mkdir()
    tool = shutil.copy(_TOOL, root / "tools")
    entries = [{"path": "src/toy/mod.py", "statement": line.split(": ", 1)[1],
                "reason": "a toy"} for line in lines]
    (root / "tools" / "untested_lines_allowed.json").write_text(
        json.dumps(entries))
    return tool


def test_allowlisted_statements_pass(tmp_path):
    toy_package(tmp_path)
    proc = run_tool(tmp_path, allowlisting(tmp_path, UNTESTED))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-7:] == [
        f"{line}  # allowed: a toy" for line in UNTESTED]


def test_a_statement_not_on_the_allowlist_fails(tmp_path):
    toy_package(tmp_path)
    proc = run_tool(tmp_path, allowlisting(tmp_path, UNTESTED[1:]))
    assert proc.returncode == 1
    report = proc.stdout.splitlines()[-7:]
    assert report[0] == UNTESTED[0]
    assert all(line.endswith("# allowed: a toy") for line in report[1:])
    assert "1 statement(s) that no test runs are not in" in proc.stderr
