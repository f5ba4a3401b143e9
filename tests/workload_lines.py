"""Line tracing of the curvelog package, and the one loader of ``bench/``.

``tracer`` records, by file name, the lines the package runs under
``sys.settrace``; ``unrun_rows`` lists per module the executable lines,
read off the compiled code objects, that it did not record.  Importing
this module loads neither curvelog nor numpy, so
``tests/untraced_lines.py`` can install the tracer before the package
loads.  The report of the lines no benchmark workload runs is
``tests/ci_reports.py workload-lines``.
"""

import importlib.util
import inspect
import os
import pathlib
import sys
import types

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def bench_workloads():
    """``bench/workloads``, imported from the checkout: its workload names
    (``WORKLOADS``), seeded plans (``build_plan``) and their operations
    (``execute``, ``extract``)."""
    if str(BENCH) not in sys.path:
        sys.path.insert(0, str(BENCH))
    import workloads
    return workloads


def package_dir() -> pathlib.Path:
    """The directory of the curvelog package, found without importing it."""
    return pathlib.Path(
        importlib.util.find_spec("curvelog").submodule_search_locations[0])


def executable_lines(path: pathlib.Path, bodies: bool = True) -> set:
    """The lines the compiler gives an instruction, in every code object,
    or with ``bodies=False`` in every function's (a comprehension's and a
    lambda's too), leaving out module and class bodies."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        if bodies or code.co_flags & inspect.CO_OPTIMIZED:
            lines.update(line for *_, line in code.co_lines() if line)
        todo += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    return lines


def ranges(lines) -> str:
    """Sorted line numbers as runs: 3, 7-9, 12."""
    runs = []
    for line in sorted(lines):
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def unrun_rows(hits: dict, bodies: bool = True) -> list:
    """One markdown row per module of the package with executable lines
    (``executable_lines``) that hits, by file name, does not hold."""
    rows = []
    for path in sorted(package_dir().glob("*.py")):
        missed = executable_lines(path, bodies) - hits.get(str(path), set())
        if missed:
            rows.append(f"- `{path.name}` ({len(missed)}): {ranges(missed)}")
    return rows


def tracer(hits: dict):
    """A ``sys.settrace`` function that adds to hits, by file name, the
    lines the package runs: each call's first line and every line event."""
    prefix = os.path.join(str(package_dir()), "")

    def line(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return line

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        hits.setdefault(name, set()).add(frame.f_lineno)
        return line

    return call
