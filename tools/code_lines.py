"""Count the code lines of a Python package, per module and in total.

A code line is a line that holds at least one token of code: blank lines,
comment lines and the lines of docstrings (module, class and function) are
not counted, unless such a line also holds code, as `def f(): "doc"`
does.  A line of a multi-line string that is not a docstring is code.

    python tools/code_lines.py src/jacsum
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstrings(tree: ast.AST) -> dict[int, list[tuple]]:
    """Per line, the (start, end) positions of the docstrings (module, class
    and function) that span it, columns in UTF-8 bytes as `ast` counts them."""
    spans: dict[int, list[tuple]] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                span = (first.lineno, first.col_offset), (first.end_lineno, first.end_col_offset)
                for line in range(first.lineno, first.end_lineno + 1):
                    spans.setdefault(line, []).append(span)
    return spans


def code_lines(path: Path) -> int:
    """The number of code lines in the Python source file `path`: a line of
    a docstring counts when it holds a token that is not of the docstring."""
    source = path.read_bytes()
    docstrings = _docstrings(ast.parse(source))
    lines = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type in _NOT_CODE:
            continue
        row, col = tok.start
        at = row, len(tok.line[:col].encode())  # tokenize counts columns in characters
        if not any(start <= at < end for start, end in docstrings.get(row, ())):
            lines.update(range(row, tok.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tools/code_lines.py PACKAGE_DIR", file=sys.stderr)
        return 64
    counts = {path.stem: code_lines(path) for path in sorted(Path(argv[0]).glob("*.py"))}
    width = max(map(len, counts), default=0)
    for name, count in counts.items():
        print(f"{name:<{width}}  {count:>5}")
    print(f"{'total':<{width}}  {sum(counts.values()):>5}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
