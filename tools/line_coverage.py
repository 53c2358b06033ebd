"""List the statements of ``src/weaksub`` that the tier-1 tests never execute.

    python3 tools/line_coverage.py

Run from the repository root.  The tier-1 suite (``pytest -q
--continue-on-collection-errors``) runs in this process under
``sys.settrace`` and ``threading.settrace``, and every line executed in a
``*.py`` file under ``src/weaksub`` is recorded; ``src`` goes first on
``sys.path``, so the tests import the traced package.

Then one line per module gives how many of its statements never ran,
followed by each of them, with its line number.  Statements come from
``ast``: docstrings, ``def`` and ``class`` lines, and ``global`` and
``nonlocal`` declarations are left out.  A statement counts as run when
any of its lines ran; a compound statement, when any line of its header
ran.

Code that runs in a child process is not traced, so the tests that start a
subprocess (the CLI's console-script and import-time tests) add nothing.
Failing tests do not change the exit status; pytest's own status is
returned when it could not run the tests (2 and above).  Standard library
and pytest only.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

SOURCE_DIR = Path("src/weaksub")
PYTEST_ARGS = ["-q", "--continue-on-collection-errors"]
_NOT_RUN = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Global, ast.Nonlocal)
_BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def statement_spans(source: str) -> dict[int, range]:
    """The lines of each statement of ``source`` that runs, by its first line.

    A compound statement spans its header, up to its first body statement.
    """
    tree = ast.parse(source)
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, _BODIES) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                if isinstance(first.value.value, str):
                    docstrings.add(first)
    spans = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, _NOT_RUN) or node in docstrings:
            continue
        body = getattr(node, "body", None)
        end = body[0].lineno if body else node.end_lineno + 1
        spans[node.lineno] = range(node.lineno, max(end, node.lineno + 1))
    return spans


def missed(source: str, executed: set[int]) -> list[int]:
    """The first lines of the statements of ``source`` of which no line is in
    ``executed``, in ascending order."""
    return sorted(
        start
        for start, span in statement_spans(source).items()
        if executed.isdisjoint(span)
    )


def trace_lines(prefix: str):
    """A trace function that records each line executed in a file whose
    name starts with ``prefix``, and the ``{file: lines}`` it records into."""
    hits: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        hits.setdefault(filename, set())
        return local

    return tracer, hits


def report(source_dir: Path, hits: dict[str, set[int]]) -> None:
    """Print, per module under ``source_dir``, the statements that never ran."""
    total = never = 0
    for path in sorted(source_dir.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        statements = len(statement_spans(text))
        gaps = missed(text, hits.get(str(path.resolve()), set()))
        total += statements
        never += len(gaps)
        print(f"{path}: {len(gaps)} of {statements} statements never ran")
        for line in gaps:
            print(f"{line:6d}  {lines[line - 1].strip()}")
    print(f"total: {never} of {total} statements never ran")


def main() -> int:
    sys.path.insert(0, str(SOURCE_DIR.resolve().parent))
    tracer, hits = trace_lines(str(SOURCE_DIR.resolve()) + os.sep)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(PYTEST_ARGS)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    report(SOURCE_DIR, hits)
    return 0 if code in (0, 1) else int(code)


if __name__ == "__main__":
    sys.exit(main())
