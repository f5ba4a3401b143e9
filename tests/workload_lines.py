"""The lines of the curvelog package that no benchmark workload runs.

Each workload's seeded plan (``bench/workloads.build_plan``: a warm-up
cycle, then the timed cycles) is built and run through ``execute`` and
``extract``, as the benchmark's worker runs it, under ``sys.settrace``.
For each module of the package the lines inside its functions that none
of it ran are then listed; module and class bodies, which run on import,
are left out.  It imports ``bench/`` and changes nothing there:

    PYTHONPATH=src python tests/workload_lines.py

The report goes to stdout as markdown.  It needs nothing beyond the
standard library and the package's own dependencies.
"""

import importlib.util
import inspect
import os
import pathlib
import sys
import types

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"
SEEDS = (1, 2, 3)
CYCLES = 2


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


def trace_workloads() -> dict:
    """The lines of the package each file ran, by file name, while each
    workload's plan was built and its operations run, for every seed."""
    wl = bench_workloads()
    hits: dict = {}
    previous = sys.gettrace()
    sys.settrace(tracer(hits))
    try:
        for workload in wl.WORKLOADS:
            for seed in SEEDS:
                plan = wl.build_plan(workload, seed, CYCLES)
                for op in plan.warmup + plan.ops:
                    wl.extract(plan, op, wl.execute(plan, op))
    finally:
        sys.settrace(previous)
    return hits


def report() -> list:
    """The report's lines: a header, then one line per module with lines
    that no workload ran inside its functions."""
    hits = trace_workloads()
    return [f"curvelog lines no benchmark workload runs "
            f"({', '.join(bench_workloads().WORKLOADS)}; seeds {', '.join(map(str, SEEDS))}; "
            f"cycles {CYCLES} after a warm-up; function bodies only):", "",
            *unrun_rows(hits, bodies=False)]


if __name__ == "__main__":
    print("\n".join(report()))
