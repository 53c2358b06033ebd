"""The statement lister in ``tools/line_coverage.py``."""

import importlib.util
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "line_coverage.py"
spec = importlib.util.spec_from_file_location("line_coverage", TOOL)
line_coverage = importlib.util.module_from_spec(spec)
spec.loader.exec_module(line_coverage)

SOURCE = '''"""A module docstring."""

import os

LIMIT = (
    1
    + 2
)


def f(x):
    """A function docstring."""
    global LIMIT
    if (
        x > 0
    ):
        return x
    try:
        y = -x
    except ValueError:
        y = 0
    return y


class C:
    """A class docstring."""

    z = 1
'''


def test_statements_leave_out_docstrings_definitions_and_declarations():
    spans = line_coverage.statement_spans(SOURCE)
    assert sorted(spans) == [3, 5, 14, 17, 18, 19, 21, 22, 28]
    # A multi-line statement spans its lines, a compound one its header.
    assert (spans[5], spans[14], spans[18]) == (range(5, 9), range(14, 17), range(18, 19))


def test_missed_statements_are_those_with_no_executed_line():
    # Line 15 lies inside the ``if`` header; 20 (``except``) is no statement.
    executed = {3, 5, 11, 15, 17, 20, 28}
    assert line_coverage.missed(SOURCE, executed) == [18, 19, 21, 22]
    assert line_coverage.missed(SOURCE, set()) == [3, 5, 14, 17, 18, 19, 21, 22, 28]


def test_traces_a_test_run_and_lists_what_never_ran(tmp_path):
    package = tmp_path / "src" / "weaksub"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(
        "def sign(x):\n    if x < 0:\n        return -1\n    return 1\n"
    )
    (tmp_path / "test_pkg.py").write_text(
        "import weaksub\n\n\ndef test_sign():\n    assert weaksub.sign(2) == 1\n"
    )
    run = subprocess.run([sys.executable, str(TOOL)], cwd=tmp_path, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-3:] == [
        "src/weaksub/__init__.py: 1 of 3 statements never ran",
        "     3  return -1",
        "total: 1 of 3 statements never ran",
    ]
