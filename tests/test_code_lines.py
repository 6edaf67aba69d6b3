"""The code-line counter in tools/code_lines.py."""

from __future__ import annotations

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SNIPPET = '''"""Module docstring,
on two lines."""

# a comment line
import os  # a trailing comment counts as code


def f(x):
    """Function docstring."""

    text = """a string
that is not a docstring"""
    return (x +
            1)


class C:
    """Class docstring
    on two lines.
    """

    "a second string statement is no docstring"
    y = 1
'''


def test_snippet_counts_tokens_outside_docstrings():
    # import, def, text (2 lines), return (2 lines), class, the string, y = 1
    assert code_lines.code_lines(SNIPPET) == 9


def test_empty_and_comment_only_sources_count_zero():
    assert code_lines.code_lines("") == 0
    assert code_lines.code_lines("# only a comment\n\n") == 0
    assert code_lines.code_lines('"""Only a docstring."""\n') == 0


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text("x = 1\n")
    (tmp_path / "b.py").write_text(SNIPPET)
    assert code_lines.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["1", "9", "10"]
    assert lines[-1].split()[1] == "total"
