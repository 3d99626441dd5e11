"""The code-line counter in tools/code_lines.py, on made-up sources."""

import importlib.util
from pathlib import Path

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# Code lines: import (1), the stray string statement (1), class (1), x = 1
# (1), def f (1), the three lines of the returned string (3), async def g
# (1), return 2 (1): 10.  The docstrings, comments and blank lines are not.
SOURCE = '''"""A module docstring
over two lines."""
# a comment line

import os  # a trailing comment is on a code line
"""A string statement that is not first in the body: code."""


class A:
    """A class docstring."""

    x = 1

    def f(self):
        """A function docstring
        over two lines."""
        # an indented comment line
        return """a multi-line string
that is not a docstring
"""


async def g():
    \'\'\'An async function docstring.\'\'\'

    return 2
'''


def test_counts_only_the_lines_that_hold_code(tmp_path):
    path = tmp_path / "made_up.py"
    path.write_text(SOURCE)
    assert code_lines.code_lines(path) == 10


def test_a_docstring_line_that_holds_other_code_is_code(tmp_path):
    # code lines: def f (1), class A (1), def g (1), the line the docstring
    # ends on with x = 1 (1), class with a non-ASCII name (1), def h (1): 6.
    # The line holding only a docstring's start and the parenthesized
    # docstring's two lines are not code.
    path = tmp_path / "one_line_bodies.py"
    path.write_text('def f(): "doc"; return 1\n'
                    'class A: "doc"\n'
                    'def g():\n'
                    '    """doc\n'
                    '    more"""; x = 1\n'
                    'class \u00c4: "d\u00f3c"\n'
                    'def h():\n'
                    '    ("""a parenthesized\n'
                    '    docstring""")\n', encoding="utf-8")
    assert code_lines.code_lines(path) == 6


def test_printed_total_is_the_sum_of_the_modules(tmp_path, capsys):
    (tmp_path / "made_up.py").write_text(SOURCE)
    (tmp_path / "small.py").write_text('"""Doc."""\n\nVALUE = 1\n\n\ndef f():\n    return VALUE\n')
    (tmp_path / "notes.txt").write_text("not python\n")
    assert code_lines.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    counts = {name: int(count) for name, count in map(str.split, lines)}
    assert lines[-1].split()[0] == "total"
    total = counts.pop("total")
    assert counts == {"made_up": 10, "small": 3}
    assert total == sum(counts.values())


def test_usage_error_without_a_package_dir(capsys):
    assert code_lines.main([]) == 64
    assert "usage:" in capsys.readouterr().err
