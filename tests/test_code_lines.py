"""The code-line counter in ``tools/code_lines.py``."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SOURCE = '''"""A module docstring
over two lines."""

import os  # a trailing comment counts as its code line

# a comment line


def f(x):
    """A function docstring."""
    total = (
        x
        + 1
    )
    text = """not a docstring,
    so both lines count"""
    return total, text


class C:
    """A class docstring
    """

    y = 1
'''


def test_counts_only_lines_of_code():
    # import, def, the four lines of ``total``, the two of ``text``,
    # return, class and y.
    assert code_lines.code_lines(SOURCE) == 11


def test_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\n# done\n")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        ["11", str(tmp_path / "a.py")],
        ["1", str(tmp_path / "pkg" / "b.py")],
        ["12", "total"],
    ]
