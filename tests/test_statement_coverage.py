"""The coverage gate's own rules (``statement_coverage``), checked without
loading it as a plugin: tier-1 runs under it in CI, and a second tracer
in the same process would replace its own."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

from statement_coverage import missed_statements

SOURCE = '''\
"""Module docstring: not a statement."""
import os


def f(x):
    """Function docstring: not a statement."""
    if x:
        return (
            x + 1
        )
    return 0


@staticmethod
def g():
    pass
'''


def test_a_statement_runs_when_any_of_its_own_lines_does():
    # The return's event fell on its second line; g's on its decorator.
    assert missed_statements(SOURCE, {2, 5, 7, 9, 14}) == [11, 16]


def test_a_compound_statement_runs_when_a_nested_one_does():
    # No event on the if or def line, but the return inside them ran.
    assert missed_statements(SOURCE, {2, 9, 14, 16}) == [11]


def test_nothing_run_misses_every_statement():
    assert missed_statements(SOURCE, set()) == [2, 5, 7, 8, 11, 15, 16]


def test_recorder_reports_the_statement_no_call_reached(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "mod.py").write_text("def used():\n    return 1\n\n\ndef unused():\n    return 2\n")
    code = (
        "import statement_coverage as sc\n"
        "rec = sc.LineRecorder(sc.Path('pkg').resolve())\n"
        "rec.start()\n"
        "import mod\n"
        "mod.used()\n"
        "rec.stop()\n"
        "print(rec.missed())\n"
    )
    path = os.pathsep.join([str(Path(__file__).parent), str(pkg)])
    out = subprocess.run(
        [sys.executable, "-c", code],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out == f"['{os.path.join('pkg', 'mod.py')}:6']\n"
