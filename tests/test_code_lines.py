"""The code-line rule of tests/code_lines.py on small snippets."""

from pathlib import Path

from code_lines import code_lines, main

SNIPPET = '''"""Module docstring
over two lines."""
# a comment

import numpy as np   # a trailing comment counts its line


def f(x):
    """Docstring."""
    text = """a string
    argument"""
    "a bare string statement is a docstring too"
    return (x +
            1)
'''


def test_counts_only_lines_with_code():
    # import, def, the two lines of the assigned string, return and its continuation
    assert code_lines(SNIPPET) == 6


def test_blank_comment_and_docstring_only_sources_have_none():
    assert code_lines("") == 0
    assert code_lines('"""Only a docstring."""\n\n# and a comment\n') == 0


def test_a_string_in_an_expression_counts():
    assert code_lines('"a" + "b"\nx = ("c"\n     "d")\n') == 3


def test_prints_a_row_per_module_and_the_total(capsys):
    assert main() == 0
    rows = dict(line.split() for line in capsys.readouterr().out.splitlines())
    root = Path(__file__).resolve().parents[1] / "src" / "vemrcp"
    assert rows.keys() == {p.name for p in root.glob("*.py")} | {"total"}
    assert int(rows["total"]) == sum(int(n) for name, n in rows.items() if name != "total")
