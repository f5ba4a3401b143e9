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

import sys
import threading

from workload_lines import tracer, unrun_rows

_hits: dict = {}
_call = tracer(_hits)
sys.settrace(_call)
threading.settrace(_call)


def pytest_addoption(parser):
    parser.addoption("--untraced-lines", metavar="FILE", default=None,
                     help="append the untraced lines of curvelog to FILE")


def pytest_sessionfinish(session):
    sys.settrace(None)
    threading.settrace(None)


def pytest_terminal_summary(terminalreporter, config):
    lines = unrun_rows(_hits) or ["- none"]
    terminalreporter.write_sep("=", "curvelog lines no test runs")
    for line in lines:
        terminalreporter.write_line(line)
    target = config.getoption("--untraced-lines")
    if target:
        with open(target, "a") as out:
            out.write("curvelog lines no tier-1 test runs "
                      "(a line run only in a subprocess counts):\n\n")
            out.write("\n".join(lines) + "\n\n")
