"""A pytest plugin that fails the run when a line of ``src/irshield`` never ran.

Load it with ``-p linereach``, with ``tests`` on ``sys.path``::

    PYTHONPATH=src:tests python -m pytest -q -p linereach

It records, through the standard library's ``sys.settrace`` and
``threading.settrace``, each line of the package that runs in the pytest
process, on any thread. At the end of the session it lists every executable
line (one that compiles to bytecode) that never ran, and fails the run if
there is one. Lines that run only in a subprocess are not seen.
"""

from __future__ import annotations

import os
import sys
import threading
import types
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "irshield"

_reached: set[tuple[str, int]] = set()
_ours: dict[str, str | None] = {}  # co_filename -> module file name, or None
_REPORT = pytest.StashKey[dict]()


def _module_of(filename: str) -> str | None:
    name = _ours.get(filename, "")
    if name == "":
        path = Path(os.path.realpath(filename))
        name = _ours[filename] = path.name if path.parent == PACKAGE else None
    return name


def _line(frame, event, arg):
    if event == "line":
        _reached.add((frame.f_code.co_filename, frame.f_lineno))
    return _line


def _call(frame, event, arg):
    return _line if _module_of(frame.f_code.co_filename) else None


def executable_lines(path: Path) -> set[int]:
    """The line numbers that any code object compiled from ``path`` runs."""
    lines = set()
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # 0: a module's entry step, no line event
        todo.extend(const for const in code.co_consts if isinstance(const, types.CodeType))
    return lines


def unreached() -> dict[str, list[int]]:
    """Per module file, the executable lines that no traced frame ran."""
    seen: dict[str, set[int]] = {}
    for filename, line in _reached:
        seen.setdefault(_module_of(filename), set()).add(line)
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        missing = sorted(executable_lines(path) - seen.get(path.name, set()))
        if missing:
            out[path.name] = missing
    return out


@pytest.hookimpl(tryfirst=True)
def pytest_load_initial_conftests(early_config, parser, args):
    # before any conftest imports the package, so its module-level lines count
    threading.settrace(_call)
    sys.settrace(_call)


def pytest_sessionfinish(session, exitstatus):
    sys.settrace(None)
    threading.settrace(None)
    if "irshield" in sys.modules and Path(sys.modules["irshield"].__file__).resolve().parent != PACKAGE:
        raise RuntimeError(f"irshield was imported from {sys.modules['irshield'].__file__}, not {PACKAGE}")
    session.config.stash[_REPORT] = missing = unreached()
    if missing and session.exitstatus == 0:
        session.exitstatus = 1


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    missing = config.stash.get(_REPORT, None)
    if missing is None:
        return
    terminalreporter.section("line reach of src/irshield")
    for name, lines in missing.items():
        source = (PACKAGE / name).read_text().splitlines()
        for line in lines:
            terminalreporter.write_line(f"unreached {name}:{line}: {source[line - 1].strip()}")
    total = sum(len(executable_lines(p)) for p in PACKAGE.glob("*.py"))
    count = sum(map(len, missing.values()))
    terminalreporter.write_line(f"{total - count} of {total} executable lines reached, {count} unreached")

