"""Count the code lines of each module of the tracechan package.

Usage (from the repository root):

    python3 tools/code_lines.py [SRC_DIR]

A code line is a physical line that holds part of a statement. Blank lines,
comment lines and the lines of docstrings (a string literal standing as the
first statement of a module, class or function) are left out; a line that
holds code and a trailing comment counts. Prints one line per module, then
the total. SRC_DIR defaults to src/tracechan. Standard library only.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers that docstrings span."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in a module's source text."""
    docstrings = _docstring_lines(ast.parse(source))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def main(argv: list[str]) -> int:
    src = Path(argv[0] if argv else "src/tracechan")
    total = 0
    for path in sorted(src.glob("*.py")):
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{path.name:16} {n:6}")
    print(f"{'total':16} {total:6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
