#!/usr/bin/env python3
"""Print the code lines of each module of a package, with docstrings stripped.

A module's code lines are the lines of ``ast.unparse`` of its syntax tree
after every module, class and function docstring is removed (a body left
empty becomes ``pass``).  Comments, blank lines and line wrapping do not
count, so the figure moves only when the code does.

Usage:
    python scripts/code_lines.py [package directory, default src/kstruve]
"""

import ast
import pathlib
import sys

_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if not isinstance(node, _SCOPES):
            continue
        body = node.body
        if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
            if isinstance(body[0].value.value, str):
                node.body = body[1:] or [ast.Pass()]
    return len(ast.unparse(tree).splitlines())


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = pathlib.Path(argv[0] if argv else "src/kstruve")
    files = sorted(root.glob("*.py"))
    if not files:
        print(f"no modules in {root}", file=sys.stderr)
        return 1
    total = 0
    for path in files:
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{path.name:16} {count:6}")
    print(f"{'total':16} {total:6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
