"""tools/code_lines.py, the counter behind the package's code-line figure."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

# 10 code lines: the import, the class line and its body line, the two
# lines of the def and of its return, the two lines of the string
# assigned to s, and the bare string that follows a statement (not a
# docstring either). The docstrings, the comment-only line and the blank
# lines are not code
SNIPPET = '''"""Module docstring,
over two lines."""

import os  # a trailing comment does not make a line a comment


# a comment-only line
class A:
    """Class docstring."""

    x = 1


def f(a,
      b):
    """Function
    docstring."""
    s = """a string literal
that is not a docstring"""
    "a bare string after a statement"
    return (a +
            b)
'''


def test_counts_code_lines_only():
    assert code_lines.code_lines(SNIPPET) == 10


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "b.py").write_text(SNIPPET)
    (tmp_path / "pkg" / "a.py").write_text('"""Only a docstring."""\n\nx = 1\n')
    assert code_lines.main([str(tmp_path / "pkg")]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == [
        f"{1:6d}  {tmp_path / 'pkg' / 'a.py'}",
        f"{10:6d}  {tmp_path / 'pkg' / 'b.py'}",
        f"{11:6d}  total",
    ]
