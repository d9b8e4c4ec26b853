"""Count the code-only lines of Python modules.

A line counts when it holds a token of code: blank lines, comment lines and
the lines of docstrings (the first statement of a module, class or function
when it is a string literal, found by the ``ast`` module) do not.  Comments
and blank lines are found by ``tokenize``.  Prints one line per module and
a total per argument.

Usage: ``python3 tools/code_lines.py [PATH ...]``, each path a module or a
directory searched for ``*.py``; the default is ``src/perronkit``.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

# tokens that carry no code of their own
_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers every docstring in ``tree`` spans."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The number of lines of ``path`` that hold code."""
    source = path.read_text(encoding="utf-8")
    docstrings = docstring_lines(ast.parse(source, str(path)))
    lines = set()
    with path.open("rb") as fh:
        for token in tokenize.tokenize(fh.readline):
            if token.type not in _LAYOUT:
                lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def main(argv: list[str]) -> int:
    for root in map(Path, argv or ["src/perronkit"]):
        modules = sorted(root.rglob("*.py")) if root.is_dir() else [root]
        total = 0
        for module in modules:
            count = code_lines(module)
            total += count
            print(f"{count:6d}  {module}")
        print(f"{total:6d}  total {root}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
