"""The line counter of tools/code_lines.py."""

import importlib.util
import os

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools",
                     "code_lines.py")
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

SOURCE = '''"""A module docstring
over two lines."""
# a comment

import os  # a trailing comment


class C:
    """A class docstring."""

    def f(self):
        """A function docstring."""
        text = """a string
        that is not a docstring"""
        return text
'''


def test_blank_comment_and_docstring_lines_are_not_code():
    # import, class, def, the two lines of the string, return
    assert code_lines.count(SOURCE) == (15, 6)
