"""A pytest plugin that lists the lines of the curvelog package no test runs.

It needs nothing beyond the standard library: ``sys.settrace`` records
every line the package executes in the test process, from before the first
``curvelog`` import (``-p`` loads a plugin before any conftest), and at
the end of the session each module's executable lines, read off its
compiled code objects, less those recorded, are printed per module and,
with ``--untraced-lines FILE``, appended to FILE as markdown:

    PYTHONPATH=src:tests python -m pytest -q -p untraced_lines \\
        --untraced-lines untraced.md

A line run only in a subprocess counts as untraced.  Tracing makes the
suite run about twice as long; it changes no test's outcome.
"""

import importlib.util
import os
import pathlib
import sys
import threading
import types

_PACKAGE = pathlib.Path(
    importlib.util.find_spec("curvelog").submodule_search_locations[0])
_PREFIX = os.path.join(str(_PACKAGE), "")
_hits: dict = {}


def _line(frame, event, arg):
    if event == "line":
        _hits[frame.f_code.co_filename].add(frame.f_lineno)
    return _line


def _call(frame, event, arg):
    name = frame.f_code.co_filename
    if not name.startswith(_PREFIX):
        return None
    _hits.setdefault(name, set()).add(frame.f_lineno)
    return _line


sys.settrace(_call)
threading.settrace(_call)


def _executable(path: pathlib.Path) -> set:
    """The lines the compiler gives an instruction, in every code object."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for *_, line in code.co_lines() if line)
        todo += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    return lines


def _ranges(lines) -> str:
    """Sorted line numbers as runs: 3, 7-9, 12."""
    runs = []
    for line in sorted(lines):
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def report() -> list:
    """One line per module of the package that has untraced lines."""
    out = []
    for path in sorted(_PACKAGE.glob("*.py")):
        missed = _executable(path) - _hits.get(str(path), set())
        if missed:
            out.append(f"- `{path.name}` ({len(missed)}): {_ranges(missed)}")
    return out


def pytest_addoption(parser):
    parser.addoption("--untraced-lines", metavar="FILE", default=None,
                     help="append the untraced lines of curvelog to FILE")


def pytest_sessionfinish(session):
    sys.settrace(None)
    threading.settrace(None)


def pytest_terminal_summary(terminalreporter, config):
    lines = report() or ["- none"]
    terminalreporter.write_sep("=", "curvelog lines no test runs")
    for line in lines:
        terminalreporter.write_line(line)
    target = config.getoption("--untraced-lines")
    if target:
        with open(target, "a") as out:
            out.write("curvelog lines no tier-1 test runs "
                      "(a line run only in a subprocess counts):\n\n")
            out.write("\n".join(lines) + "\n\n")
