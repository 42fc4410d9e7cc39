"""The statement tracer of tools/untested_lines.py, run on a toy package."""

import os
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


def test_prints_each_statement_that_no_test_ran(tmp_path):
    (tmp_path / "src" / "toy").mkdir(parents=True)
    (tmp_path / "src" / "toy" / "__init__.py").write_text("")
    (tmp_path / "src" / "toy" / "mod.py").write_text(MODULE)
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_mod.py").write_text(TEST)
    proc = subprocess.run(
        [sys.executable, _TOOL, os.path.join("src", "toy"), "-q",
         "-p", "no:cacheprovider", "tests"],
        cwd=tmp_path, capture_output=True, text=True, check=True)
    path = os.path.join("src", "toy", "mod.py")
    report = proc.stdout.splitlines()
    # pytest's own lines come first
    assert report[-7:] == [
            f"{path}:11: raise ValueError(",
            f"{path}:18: pass",
            f"{path}:30: G = 1",
            f"{path}:31: return [",
            f"{path}:42: elif self.x:",
            f"{path}:43: return 1",
            f"{path}:45: return 2",
        ]
    assert not any(line.startswith(path) for line in report[:-7])
