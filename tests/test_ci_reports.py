"""CI's reports keep their layout, and the exact layer keeps its outputs.

Each report of ``tests/ci_reports.py`` runs here at its smallest size, so
that renaming a name it reads fails tier-1, not only the report's CI step.
"""

import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

import ci_reports

MS = r"\d+\.\d+ ms"
# the child reads its peak from /proc, and exits non-zero where there is none
PEAK = (r"\d+\.\d MB" if os.path.exists("/proc/self/status")
        else r"exit \d+")
KINDS = ("normal_form", "decompose_subker", "kernel_member+",
         "kernel_member-")
HERE = pathlib.Path(__file__).resolve().parent
ROW = re.compile(r"- `(\w+\.py)` \((\d+)\): (\d+(?:-\d+)?(?:, \d+(?:-\d+)?)*)")


def blocks(out: list) -> dict:
    """A report's rows by the header line above them."""
    found, head = {}, None
    for line in out:
        if line.startswith("- "):
            found[head].append(line[2:])
        elif line:
            head = line
            found[head] = []
    return found


def assert_layout(out: list, layout: dict):
    """Each header is the layout's, in order, over as many rows, each row
    matching its pattern (a pattern per row, or one for all of them)."""
    found = blocks(out)
    assert list(found) == list(layout)
    for head, patterns in layout.items():
        rows = found[head]
        if isinstance(patterns, str):
            patterns = [patterns] * len(rows)
        assert len(rows) == len(patterns), head
        for row, pattern in zip(rows, patterns):
            assert re.fullmatch(pattern, row), (head, row)


def test_the_workload_line_report_keeps_its_layout():
    # in a child process as CI runs it: the tracer sees only the report's
    # run, and the suite's own tracing is left alone
    proc = subprocess.run(
        [sys.executable, str(HERE / "ci_reports.py"), "workload-lines"],
        capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=str(ci_reports.PACKAGE.parent)))
    assert proc.returncode == 0, proc.stderr
    head, blank, *rows, end = proc.stdout.splitlines()
    assert head == ("curvelog lines no benchmark workload runs (eval-points,"
                    " monodromy-loops, exact-reduce; seeds 1, 2, 3; cycles 2"
                    " after a warm-up; function bodies only):")
    assert blank == end == ""
    names = []
    for row in rows:
        name, count, runs = ROW.fullmatch(row).groups()
        spans = [[int(x) for x in run.split("-")] for run in runs.split(", ")]
        assert int(count) == sum(run[-1] - run[0] + 1 for run in spans)
        names.append(name)
    assert names == sorted(names)
    # no workload runs the CLI
    assert "cli.py" in names


def test_the_cold_start_report_keeps_its_layout():
    assert_layout(ci_reports.cold(1), {
        "cold start, median wall time of 1 interleaved launches per row (a "
        "new process each, python -m curvelog.cli for a subcommand):":
            [rf"{re.escape(name)}: \d+\.\d ms"
             for name in ci_reports.COLD_ROWS]})


def test_the_source_line_report_keeps_its_layout():
    out = ci_reports.lines()
    found = blocks(out)
    modules = found["src/curvelog code-only lines by module:"]
    assert [re.fullmatch(r"`(\w+\.py)`: \d+", m).group(1) for m in modules] \
        == sorted(p.name for p in ci_reports.PACKAGE.glob("*.py"))
    heads = [re.sub(r"\d+", "N", head) for head in found]
    assert heads[:5] == [
        "src/curvelog lines: N (seed: N)",
        "src/curvelog code-only lines (no blank, comment or docstring "
        "line): N",
        "src/curvelog code-only lines by module:",
        "settable values: IntegratorConfig fields N (rtol, atol); flag slots "
        "of the N subcommands N",
        "public names (functions, classes and constants; no submodules), "
        "len(curvelog.__all__): N"]
    assert heads[5].startswith("public names that no other src/curvelog "
                               "module and no bench file names: N: ")
    # the per-module counts add up to the total
    total = int(re.search(r"\d+", out[2].rsplit(":", 1)[1]).group())
    assert total == sum(int(m.rsplit(" ", 1)[1]) for m in modules)
    assert out[-1] == "```" and out[-2].endswith(" total")


def test_the_monodromy_report_keeps_its_layout():
    assert_layout(ci_reports.monodromy(1), {
        "pieces of a full circle of radius 0.45 on {0, 1, -1}, closed form "
        "/ bisection:": [rf"about {s}: \d+ / \d+" for s in ("0", "1", "-1")],
        "pieces integrated by a weight-6 loop_around based at distance 1 on "
        "{0, 1, -1}:": [rf"around {s}: \d+ pieces" for s in ("0", "1", "-1")],
        "monodromy_operator, one loop_around 1 on {0, 1, -1}, min of 1 wall "
        "times:": [rf"weight {w}: {MS}" for w in (5, 6, 7)],
        "curvelog monodromy --poles 0,1,-1 --word 0 through python -m "
        "curvelog.cli, one run: stdout and wall time:":
            [rf"weight {w}: exit 0, [\d,]+ bytes, \d+\.\d\d s"
             for w in (6, 7, 8)],
        "one _run of a loop_around 1 based at 1 + i on {0, 1, -1} (its path "
        "without the retraced stick), min of 4: µs per piece, and the level "
        "GEMMs of one piece alone:":
            [rf"weight {w}: \d+ pieces, \d+\.\d µs per piece; the level "
             rf"GEMMs alone \d+\.\d µs, \d+% of the run" for w in (5, 6)]})


def test_the_partial_systems_report_keeps_its_layout():
    out = ci_reports.systems(1)
    *out, blank, shapes, blank2, selftest = out
    assert_layout(out, {
        "in-disk first points of the 450 eval-points operations at seed 1, "
        "by where their turns about 0 come from:":
            [r"a chord: \d+",
             r"a detour about 0, turns from its half-plane: \d+",
             r"the leg from the reference point, integrated: \d+"],
        "eval_L, the 45 eval-points shapes at seed 1, by where the chain "
        "starts, min of 1 wall times per point:":
            r"(at the point|on its ray|at the reference point): \d+ points, "
            r"\d+\.\d{3} ms each"})
    assert blank == blank2 == ""
    assert re.fullmatch(r"all 45 shapes: \d+\.\d\d ms", shapes)
    assert re.fullmatch(r"selftest.run, in process: \d+\.\d\d s", selftest)


def test_the_origin_disk_report_keeps_its_layout():
    assert_layout(ci_reports.disk(1), {
        "eval_L of (-1, 0^5) on {0, 1, -1} at |z|/r on the ray at 1 radian, "
        "median of 1 wall times:":
            [rf"\|z\|/r = {ratio}: \d+ series terms, head "
             rf"(has segments|is empty), \d+\.\d{{3}} ms"
             for ratio in ("0.25", "0.5", "0.74", "0.76", "0.95")]})


def test_the_series_report_keeps_its_layout():
    assert_layout(ci_reports.series(1), {
        "series entry points, min of 1 wall times:": [
            rf"mzv of \(1, 0\^{n}\): {MS}" for n in (9, 99, 999)] + [
            rf"expand_at of \(0, 1\)\^{n} at 1 on {{0, 1}}: {MS}"
            for n in (2, 8, 32)] + [
            rf"expand_at of \(0, 1, -1\) at 0 on {{0, 1, -1}}, order 4,095: "
            rf"{MS}",
            rf"expand_at of \(0, 1\+i, 3-2i\) at 0 on {{0, 1\+i, 3-2i}}, "
            rf"order 1,000: {MS}",
            r"eval_L of \(1, 0\^999\) at 1/2, one wall time: \d+\.\d ms",
            r"peak resident set of a process running mzv of \(1, 0\^3999\): "
            + PEAK,
            r"curvelog mzv on 20,000 letters: exit \d in \d+\.\d\d s, \d+ "
            r"bytes on stdout"]})


def test_the_exact_reduce_report_keeps_its_layout():
    assert_layout(ci_reports.exact(1), {
        "exact-reduce, the 36 shapes at seed 1, wall time by kind: the first "
        "pass (fresh pole sets), the min of 1 passes (warm), and the min "
        "over normal_form's:":
            [rf"{re.escape(kind)}: first {MS}, min of 1 {MS}, \d+\.\d\d× "
             rf"normal_form" for kind in KINDS]})


def test_the_subcommand_options_report_lists_each_usage():
    out = ci_reports.options()
    assert out[:3] == ["curvelog subcommand options:", "", "```"]
    assert out[-1] == "```"
    usages = [line.split()[2] for line in out[3:-1]
              if line.startswith("usage: ")]
    assert usages == ["eval", "mzv", "reduce", "kernel", "monodromy",
                      "periods", "expand", "kz-check", "selftest"]


def test_the_exact_reduce_outputs_keep_their_digest():
    # the digest CI's "Exact outputs of exact-reduce" step gates on
    want = "c3a94200f2660c54de754b68e69fcc967d3cdb281a84ce6173fce6968404b6b5"
    assert ci_reports.digest() == (
        [f"540 exact-reduce results: sha256 {want}"], True)


RESULT = {"correct": True, "failed": 0, "attempted": 45,
          "metrics": {"ops_per_s": {"value": 5717.4, "unit": "1/s"},
                      "peak_rss_mb": {"value": 37.26, "unit": "MB"}}}


@pytest.mark.parametrize("change, head, ok", [
    ({}, "correct True, failed 0", True),
    ({"correct": False}, "correct False, failed 0", False),
    ({"failed": 1}, "correct True, failed 1", False)])
def test_a_smoke_run_passes_only_with_every_result_checked(change, head, ok):
    rows, passed = ci_reports.smoke_rows(
        "eval-points", json.dumps({**RESULT, **change}))
    assert passed is ok
    assert rows == [f"eval-points: {head} of 45", "",
                    "- ops_per_s: 5717 1/s", "- peak_rss_mb: 37.26 MB"]


def test_a_smoke_run_without_a_result_line_fails():
    assert ci_reports.smoke_rows("exact-reduce", "") == (
        ["exact-reduce: no result line"], False)


def test_an_unknown_step_is_a_usage_error(capsys):
    assert ci_reports.main(["bogus"]) == 2
    assert ci_reports.main([]) == 2
    assert "usage: ci_reports.py {lines," in capsys.readouterr().err


def test_each_workflow_step_runs_one_report_or_gate():
    # every tests/ci_reports.py command of tier1.yml names a step, and
    # every step runs in one of them
    workflow = HERE.parent / ".github" / "workflows" / "tier1.yml"
    steps = re.findall(r"^\s+run: .*tests/ci_reports\.py (\S+)",
                       workflow.read_text(), re.MULTILINE)
    assert sorted(steps) == sorted([*ci_reports.REPORTS, *ci_reports.GATES])
