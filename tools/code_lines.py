"""Count all lines and code lines per Python module and in total.

A code line holds at least one token that is not a comment and is not
part of a docstring (the string that opens a module, class or
function); blank lines count only toward all lines.

Usage: python tools/code_lines.py [DIR_OR_FILE ...]   (default: src/tgr)
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers that docstrings of `tree` span."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(all lines, code lines) of one module's source."""
    skip = docstring_lines(ast.parse(source))
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(line for line in range(tok.start[0], tok.end[0] + 1)
                        if line not in skip)
    return len(source.splitlines()), len(code)


def modules(paths: list[str]) -> list[str]:
    found = []
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, files in os.walk(path):
                dirs.sort()
                found += [os.path.join(root, f) for f in sorted(files)
                          if f.endswith(".py")]
        else:
            found.append(path)
    return found


def main(argv: list[str]) -> int:
    total_all = total_code = 0
    for path in modules(argv or ["src/tgr"]):
        with open(path, encoding="utf-8") as fh:
            n_all, n_code = count(fh.read())
        total_all += n_all
        total_code += n_code
        print(f"{n_all:6d} {n_code:6d}  {path}")
    print(f"{total_all:6d} {total_code:6d}  total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
