"""The report of the lines no benchmark workload runs keeps its layout."""

import os
import pathlib
import re
import subprocess
import sys

import curvelog

HERE = pathlib.Path(__file__).resolve().parent
ROW = re.compile(r"- `(\w+\.py)` \((\d+)\): (\d+(?:-\d+)?(?:, \d+(?:-\d+)?)*)")


def test_the_workload_line_report_keeps_its_layout():
    # in a child process as CI runs it: the tracer sees only the report's
    # run, and the suite's own tracing is left alone
    src = pathlib.Path(curvelog.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, str(HERE / "workload_lines.py")],
        capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 0, proc.stderr
    head, blank, *rows = proc.stdout.splitlines()
    assert head == ("curvelog lines no benchmark workload runs (eval-points,"
                    " monodromy-loops, exact-reduce; seeds 1, 2, 3; cycles 2"
                    " after a warm-up; function bodies only):")
    assert blank == ""
    names = []
    for row in rows:
        name, count, runs = ROW.fullmatch(row).groups()
        spans = [[int(x) for x in run.split("-")] for run in runs.split(", ")]
        assert int(count) == sum(run[-1] - run[0] + 1 for run in spans)
        names.append(name)
    assert names == sorted(names)
    # no workload runs the CLI
    assert "cli.py" in names
