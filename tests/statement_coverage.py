"""A pytest plugin that fails the run if a statement of ``src/rpyspect``
never ran. Stdlib only; tier-1's default run does not load it.

Run it as::

    PYTHONPATH=src:tests python -m pytest -q -p statement_coverage

After the tests it prints ``file:line`` for every statement no test ran,
and the run fails if there is one. Line events come from
``sys.monitoring`` where Python has it (3.12+), which reports each line
location once, and from ``sys.settrace`` otherwise, which makes tier-1
about 2.5 times slower.

A statement ran when a line event fell on one of its own lines, or when a
statement nested in it ran. A simple statement's lines are all the lines
it spans; a compound statement's are its header, from its first decorator
to the line before its first nested statement. Docstrings are not
statements.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path
from typing import Optional

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "rpyspect"


def _children(node: ast.stmt):
    for field in ("body", "orelse", "finalbody"):
        yield from getattr(node, field, ())
    for clause in getattr(node, "handlers", []) + getattr(node, "cases", []):
        yield from clause.body


def _is_docstring(node: ast.stmt) -> bool:
    return (
        isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def missed_statements(source: str, hit: set[int]) -> list[int]:
    """The first lines of the statements of ``source`` that did not run,
    given the lines ``hit`` on which line events fell."""
    missed = []

    def visit(statements) -> bool:
        any_ran = False
        for node in statements:
            if _is_docstring(node):
                continue
            children = list(_children(node))
            if children:
                first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
                last = max(first, children[0].lineno - 1)
                ran = visit(children)
            else:
                first, last, ran = node.lineno, node.end_lineno, False
            ran = ran or not hit.isdisjoint(range(first, last + 1))
            if not ran:
                missed.append(node.lineno)
            any_ran = any_ran or ran
        return any_ran

    visit(ast.parse(source).body)
    return sorted(missed)


class LineRecorder:
    """Records the lines run in the files under ``root``, by real path."""

    def __init__(self, root: Path):
        self.root = str(root) + os.sep
        self.hit: dict[str, set[int]] = {}
        self._paths: dict[str, Optional[str]] = {}

    def _path(self, filename: str) -> Optional[str]:
        """The real path of ``filename`` if it is under ``root``, else None."""
        try:
            return self._paths[filename]
        except KeyError:
            path = os.path.realpath(filename)
            self._paths[filename] = path = path if path.startswith(self.root) else None
            return path

    def start(self) -> None:
        if hasattr(sys, "monitoring"):
            mon = sys.monitoring
            mon.use_tool_id(mon.COVERAGE_ID, "statement_coverage")
            mon.register_callback(mon.COVERAGE_ID, mon.events.LINE, self._on_line)
            mon.set_events(mon.COVERAGE_ID, mon.events.LINE)
        else:
            threading.settrace(self._on_call)
            sys.settrace(self._on_call)

    def stop(self) -> None:
        if hasattr(sys, "monitoring"):
            mon = sys.monitoring
            mon.set_events(mon.COVERAGE_ID, 0)
            mon.register_callback(mon.COVERAGE_ID, mon.events.LINE, None)
            mon.free_tool_id(mon.COVERAGE_ID)
        else:
            sys.settrace(None)
            threading.settrace(None)

    def _on_line(self, code, line: int):
        path = self._path(code.co_filename)
        if path is not None:
            self.hit.setdefault(path, set()).add(line)
        # Each location reports once; nothing else is wanted from it.
        return sys.monitoring.DISABLE

    def _on_call(self, frame, event, arg):
        # Only frames of the measured files get a line tracer.
        path = self._path(frame.f_code.co_filename)
        if path is None:
            return None
        lines = self.hit.setdefault(path, set())

        def on_event(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return on_event

        return on_event

    def missed(self) -> list[str]:
        """``file:line`` of every statement under ``root`` that did not run,
        each file named relative to the working directory."""
        out = []
        for path in sorted(Path(self.root).rglob("*.py")):
            hit = self.hit.get(str(path), set())
            for line in missed_statements(path.read_text(encoding="utf-8"), hit):
                out.append(f"{os.path.relpath(path)}:{line}")
        return out


class StatementCoverage:
    """The plugin object: reports and fails the run at its end."""

    def __init__(self, recorder: LineRecorder):
        self.recorder = recorder

    @pytest.hookimpl(tryfirst=True)
    def pytest_sessionfinish(self, session, exitstatus):
        self.recorder.stop()
        missed = self.recorder.missed()
        if not missed:
            return
        write = session.config.pluginmanager.get_plugin("terminalreporter").write_line
        write("")
        for where in missed:
            write(f"not run by any test: {where}")
        write(f"statement coverage: {len(missed)} statements of src/rpyspect never ran")
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


@pytest.hookimpl(tryfirst=True)
def pytest_load_initial_conftests(early_config, parser, args):
    # Before the conftest files, which import rpyspect.
    recorder = LineRecorder(SOURCE)
    recorder.start()
    early_config.pluginmanager.register(StatementCoverage(recorder), "statement_coverage_report")
