"""The reports and gates of CI's tier-1 workflow, one function per step.

Each step prints markdown to stdout, which CI appends to the job summary:

    PYTHONPATH=src python tests/ci_reports.py <step>

The steps, by the workflow step that runs them:

- ``workload-lines``: Lines no benchmark workload runs
- ``cold``: Cold start
- ``lines``: Source line count
- ``monodromy``: monodromy_operator by weight
- ``systems``: eval_L partial systems and selftest
- ``disk``: eval_L across the origin's disk
- ``series``: Series entry points
- ``exact``: exact-reduce by kind
- ``digest``: Exact outputs of exact-reduce (a gate)
- ``options``: Subcommand options
- ``smoke``: Benchmark smoke runs (a gate)

A report gates nothing; a gate exits 1 when its check fails.  Run as a
script, the steps pin BLAS to one thread before numpy loads, so that a
timing row does not depend on the runner's core count; the cold-start
launches alone run in the environment the script started with.  Each
report takes its repeat count as an argument; only the tier-1 test of its
layout passes one, at the smallest size.  The seeded plans are
``bench/workloads``'; nothing under ``bench/`` is changed.  The commands
run as ``python -m curvelog.cli``, so no install is needed.
"""

import os

# the environment before the BLAS pins, for the cold-start launches, whose
# medians stay comparable with those of a plain process
START_ENV = dict(os.environ)
if __name__ == "__main__":
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, "1")

import ast  # noqa: E402
import cmath  # noqa: E402
import compileall  # noqa: E402
import dataclasses  # noqa: E402
import functools  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import pathlib  # noqa: E402
import re  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tokenize  # noqa: E402

import numpy as np  # noqa: E402

import curvelog  # noqa: E402
from workload_lines import (BENCH, bench_workloads as workloads,  # noqa: E402
                            tracer, unrun_rows)

PACKAGE = pathlib.Path(curvelog.__file__).resolve().parent
SEED_LINES = 3814
# the SHA-256 over the 540 exact-reduce results of seeds 1, 3 and 11, five
# cycles each, in plan order
DIGEST = "c3a94200f2660c54de754b68e69fcc967d3cdb281a84ce6173fce6968404b6b5"


# ---------------------------------------------------------------- helpers

def best(call, repeat: int) -> float:
    """The least wall time of repeat calls, in seconds."""
    times = []
    for _ in range(repeat):
        t = time.perf_counter()
        call()
        times.append(time.perf_counter() - t)
    return min(times)


def block(head: str, rows) -> list:
    """A header line, a blank line and the rows as a markdown list."""
    return [head, "", *(f"- {row}" for row in rows)]


def python(*args, env=None, **kw):
    """A fresh Python process on args that finds the package this module
    imported, in env (this process's environment by default), and its wall
    time in seconds."""
    env = dict(os.environ if env is None else env,
               PYTHONPATH=str(PACKAGE.parent))
    t = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], capture_output=True,
                          env=env, **kw)
    return proc, time.perf_counter() - t


def code_only_lines(text: str) -> int:
    """The lines that hold a token other than a comment and lie in no
    docstring (a module's, class's or function's first statement when it
    is a string)."""
    skip = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
            tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
    doc = set()
    for node in ast.walk(ast.parse(text)):
        body = getattr(node, "body", None)
        if (isinstance(body, list) and body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            doc.update(range(body[0].lineno, body[0].end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in skip:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - doc)


# ---------------------------------------------------------------- reports

# the plans the workload-lines trace runs: each workload's at every seed, a
# warm-up cycle and then the timed cycles
SEEDS = (1, 2, 3)
CYCLES = 2


def workload_lines() -> list:
    """The lines of the package that no benchmark workload runs: each
    workload's seeded plan is built and run through ``execute`` and
    ``extract``, as the benchmark's worker runs it, under
    ``sys.settrace``; then, per module, the lines inside its functions
    that none of it ran (module and class bodies run on import)."""
    wl = workloads()
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
    return [f"curvelog lines no benchmark workload runs "
            f"({', '.join(wl.WORKLOADS)}; seeds {', '.join(map(str, SEEDS))}; "
            f"cycles {CYCLES} after a warm-up; function bodies only):", "",
            *unrun_rows(hits, bodies=False)]


# the README's kernel example: three words whose normal form is zero
KERNEL_TENSOR = """{"terms": [
  {"word": [{"pole": "0"}, {"rf": {"poly": ["1"], "principal": []}},
            {"pole": "1"}],                          "coeff": {"re": "1"}},
  {"word": [{"pole": "0"},
            {"rf": {"poly": ["1"],
                    "principal": [{"pole": "1", "order": 1, "coeff": "1"}]}}],
                                                     "coeff": {"re": "-1"}},
  {"word": [{"rf": {"poly": ["1"], "principal": []}}, {"pole": "1"}],
                                                     "coeff": {"re": "1"}}]}"""

# the README's reduce example: the one-letter word dz / z^2
REDUCE_TENSOR = ('{"terms": [{"word": [{"rf": {"poly": [], "principal": '
                 '[{"pole": "0", "order": 2, "coeff": "1"}]}}], '
                 '"coeff": {"re": "1"}}]}')

# each subcommand's arguments in the README's examples
EXAMPLES = {
    "eval": ["--poles", "0,1", "--word", "0,1", "--point", "1/2"],
    "mzv": ["--word", "1,0"],
    "reduce": ["--poles", "0", "--tensor-json", REDUCE_TENSOR],
    "kernel": ["--poles", "0,1", "--tensor-json", KERNEL_TENSOR],
    "monodromy": ["--poles", "0,1", "--word", "0", "--weight", "1"],
    "periods": ["--poles", "0,1"],
    "expand": ["--poles", "0,1", "--word", "0,1", "--point", "0",
               "--weight", "4"],
    "kz-check": ["--poles", "1/3,1/2"],
    "selftest": ["--criteria", "1,2"],
}

# the arguments of each cold-start row, by its name in the report
COLD_ROWS = {"python -c pass": ["-c", "pass"],
             "import numpy": ["-c", "import numpy"],
             "import curvelog": ["-c", "import curvelog"],
             **{f"curvelog {command}": ["-m", "curvelog.cli", command, *args]
                for command, args in EXAMPLES.items()}}


def cold(repeat: int = 15) -> list:
    """The median wall time of a fresh process per row, over repeat
    interleaved rounds: every round launches each row once, in a fixed
    order, so a drift of the machine's speed hits every row alike.  The
    package is byte-compiled first, so no launch pays for compiling it;
    a launch that exits with an error stops the report."""
    compileall.compile_dir(str(PACKAGE), quiet=1)
    times = {name: [] for name in COLD_ROWS}
    for _ in range(repeat):
        for name, args in COLD_ROWS.items():
            times[name].append(python(*args, env=START_ENV, check=True)[1])
    return block(f"cold start, median wall time of {repeat} interleaved "
                 f"launches per row (a new process each, python -m "
                 f"curvelog.cli for a subcommand):",
                 (f"{name}: {1e3 * statistics.median(t):.1f} ms"
                  for name, t in times.items()))


def lines() -> list:
    """Lines, code-only lines (in total and per module), settable values
    and public names beside the seed's line count."""
    from curvelog import IntegratorConfig
    from curvelog.cli import _SUBCOMMANDS
    paths = sorted(PACKAGE.glob("*.py"))
    texts = {p: p.read_text() for p in paths}
    counts = {p: t.count("\n") for p, t in texts.items()}
    code = {p: code_only_lines(t) for p, t in texts.items()}
    fields = [f.name for f in dataclasses.fields(IntegratorConfig)]
    slots = sum(len(flags.split()) for _, _, flags in _SUBCOMMANDS.values())
    others = {p: p.read_text() for p in BENCH.glob("*.py")}
    others.update(texts)
    unused = []
    for name in curvelog.__all__:
        home = getattr(curvelog, name).__module__.rsplit(".", 1)[-1]
        own = {PACKAGE / "__init__.py", PACKAGE / f"{home}.py"}
        if not any(re.search(rf"\b{name}\b", text)
                   for p, text in others.items() if p not in own):
            unused.append(name)
    return [f"src/curvelog lines: {sum(counts.values())} "
            f"(seed: {SEED_LINES})", "",
            f"src/curvelog code-only lines (no blank, comment or docstring "
            f"line): {sum(code.values())}", "",
            *block("src/curvelog code-only lines by module:",
                   (f"`{p.name}`: {n}" for p, n in code.items())), "",
            f"settable values: IntegratorConfig fields {len(fields)} "
            f"({', '.join(fields)}); flag slots of the {len(_SUBCOMMANDS)} "
            f"subcommands {slots}", "",
            f"public names (functions, classes and constants; no "
            f"submodules), len(curvelog.__all__): {len(curvelog.__all__)}",
            "",
            f"public names that no other src/curvelog module and no bench "
            f"file names: {len(unused)}: {', '.join(unused) or 'none'}", "",
            "```",
            *(f"{n:>6} src/curvelog/{p.name}" for p, n in counts.items()),
            f"{sum(counts.values()):>6} total",
            "```"]


def monodromy(repeat: int = 5) -> list:
    """The pieces a full circle and a weight-6 loop integrate, the wall
    time of one operator build by weight, ``curvelog monodromy``'s bytes
    and wall time, and a piece's cost beside the level GEMMs it runs."""
    from curvelog import (ArcSeg, IntegratorConfig, Path, PoleSet, Section,
                          loop_around, monodromy_operator)
    from curvelog.iterint import (_NODES, _WordSystem, _plan, _run,
                                  retraced_tail)
    from series_checks import reference_plan
    ps = PoleSet.of("0,1,-1")
    sec = Section.standard(ps)
    cfg = IntegratorConfig()

    def head(label, base):
        # the loop's path without its retraced stick
        segs = loop_around(ps, label, base).path.segments
        return Path(segs[:len(segs) - retraced_tail(segs)], base)

    def pieces(system, path):
        y0 = np.eye(1, system.n, dtype=complex)[0]
        _, _, rows = _run(system, y0, path, cfg, ps.as_complex, trace=True)
        return y0, len(rows) // (_NODES - 1)

    def system(weight):
        return _WordSystem.canonical(ps, weight, lambda lab: sec.form(lab).f)

    circles = []
    for label, s in zip(ps.labels, ps.as_complex):
        circle = ArcSeg(s, 0.45, 0.0, 2 * math.pi)
        got = len(_plan(circle, ps.as_complex, 1000))
        ref = len(reference_plan(circle, ps.as_complex, 1000)[0])
        circles.append(f"about {label}: {got} / {ref}")
    loops = []
    for label, s in zip(ps.labels, ps.as_complex):
        _, solved = pieces(system(6), head(label, s + 1j))
        loops.append(f"around {label}: {solved} pieces")
    loop = loop_around(ps, "1", 0.5 + 0.5j)
    builds = []
    for weight in (5, 6, 7):
        spent = best(lambda: monodromy_operator(loop, sec, weight=weight),
                     repeat)
        builds.append(f"weight {weight}: {1e3 * spent:.2f} ms")
    runs = []
    for weight in (6, 7, 8):
        proc, wall = python("-m", "curvelog.cli", "monodromy", "--poles",
                            "0,1,-1", "--word", "0", "--weight", str(weight))
        runs.append(f"weight {weight}: exit {proc.returncode}, "
                    f"{len(proc.stdout):,} bytes, {wall:.2f} s")
    # a piece's cost beside the GEMMs it runs, so that whether the
    # integrator is bound by BLAS stays visible: each inner level's
    # Y[plo:phi] @ M and the top level's thin product, on ones
    path = head("1", 1 + 1j)
    gemm_rows = []
    for weight in (5, 6):
        words = system(weight)
        y0, solved = pieces(words, path)
        run = best(lambda: _run(words, y0, path, cfg, ps.as_complex),
                   4 * repeat)
        m = len(words.evaluators)
        *inner, (kept, _, plo, phi, _) = words.levels
        Y = np.ones((kept, _NODES), dtype=complex)
        M = np.ones((_NODES, m * _NODES), dtype=complex)
        K = np.ones((_NODES, 3 * m), dtype=complex)
        outs = [(Y[a:b], np.empty((b - a, m * _NODES), dtype=complex))
                for _, _, a, b, _ in inner]
        R = np.empty((phi - plo, 3 * m), dtype=complex)

        def gemms():
            for parents, out in outs:
                np.matmul(parents, M, out=out)
            np.matmul(Y[plo:phi], K, out=R)

        gemm = best(gemms, 40 * repeat)
        gemm_rows.append(f"weight {weight}: {solved} pieces, "
                         f"{1e6 * run / solved:.1f} µs per piece; the level "
                         f"GEMMs alone {1e6 * gemm:.1f} µs, "
                         f"{gemm * solved / run:.0%} of the run")
    return [*block("pieces of a full circle of radius 0.45 on {0, 1, -1}, "
                   "closed form / bisection:", circles), "",
            *block("pieces integrated by a weight-6 loop_around based at "
                   "distance 1 on {0, 1, -1}:", loops), "",
            *block(f"monodromy_operator, one loop_around 1 on {{0, 1, -1}}, "
                   f"min of {repeat} wall times:", builds), "",
            *block("curvelog monodromy --poles 0,1,-1 --word 0 through "
                   "python -m curvelog.cli, one run: stdout and wall time:",
                   runs), "",
            *block(f"one _run of a loop_around 1 based at 1 + i on "
                   f"{{0, 1, -1}} (its path without the retraced stick), min "
                   f"of {4 * repeat}: µs per piece, and the level GEMMs of "
                   f"one piece alone:", gemm_rows)]


def systems(repeat: int = 5) -> list:
    """Where eval_L's in-disk first points take their turns about 0 from,
    and its wall time by where the chain starts; eval_L runs word systems
    whose levels are not full.  A point out to three quarters of the
    origin's disk radius starts from its own series, one further out in
    the disk on its ray, and the rest at the reference point; an in-disk
    first point takes its turns about 0 from its chord from the reference
    point or, past the chord's lone detour about 0, from its half-plane,
    and otherwise starts at the reference point along the planned leg,
    which is integrated (told by the paths ``hyperlog._start`` plans)."""
    from curvelog import eval_L, hyperlog, reference_point, selftest
    from curvelog.iterint import _detours, plan_path
    leg = "the leg from the reference point, integrated"
    half = "a detour about 0, turns from its half-plane"
    turns_from = dict.fromkeys(["a chord", half, leg], 0)
    planned = []
    wl = workloads()
    ops = wl.build_plan("eval-points", 1, 10)
    hyperlog.plan_path = lambda a, b, ps: (planned.append(a),
                                           plan_path(a, b, ps))[1]
    try:
        for op in ops.ops:
            ps = ops.context["poles"][op.shape[0]]
            z, z1 = complex(op.params["point"]), reference_point(ps)
            planned.clear()
            hyperlog._start(z, ps)
            if abs(z) < 2 * z1.real:
                turns_from[leg if z1 in planned else
                           half if _detours(z1, z, ps)[1] else "a chord"] += 1
    finally:
        hyperlog.plan_path = plan_path
    shapes = wl.build_plan("eval-points", 1, 1)
    groups = {"at the point": [], "on its ray": [],
              "at the reference point": []}
    for op in shapes.ops:
        ps = shapes.context["poles"][op.shape[0]]
        head, _ = hyperlog._start(complex(op.params["point"]), ps)
        kind = ("at the point" if not head.segments else
                "at the reference point"
                if head.base == reference_point(ps) else "on its ray")
        groups[kind].append((op.params["word"], op.params["point"], ps))
    total, starts = 0.0, []
    for kind, calls in groups.items():
        if calls:
            spent = best(lambda: [eval_L(*call) for call in calls], repeat)
            total += spent
            starts.append(f"{kind}: {len(calls)} points, "
                          f"{1e3 * spent / len(calls):.3f} ms each")
    t = time.perf_counter()
    selftest.run()
    return [*block(f"in-disk first points of the {len(ops.ops)} eval-points "
                   f"operations at seed 1, by where their turns about 0 "
                   f"come from:",
                   (f"{source}: {n}" for source, n in turns_from.items())),
            "",
            *block(f"eval_L, the {len(shapes.ops)} eval-points shapes at "
                   f"seed 1, by where the chain starts, min of {repeat} wall "
                   f"times per point:", starts), "",
            f"all {len(shapes.ops)} shapes: {1e3 * total:.2f} ms", "",
            f"selftest.run, in process: {time.perf_counter() - t:.2f} s"]


def disk(repeat: int = 50) -> list:
    """One word at |z|/r on one ray of the origin's disk of radius r: the
    series term count at the chain's start, whether the head integrates
    any segment, and the median wall time.  A first point out to three
    quarters of r starts from its own series, one further out from its
    ray there."""
    from curvelog import PoleSet, eval_L, reference_point
    from curvelog.hyperlog import _start
    from curvelog.local_expansion import _series_order
    ps = PoleSet.of("0,1,-1")
    word = ("-1", "0", "0", "0", "0", "0")
    r = 2 * reference_point(ps).real
    rows = []
    for ratio in (0.25, 0.5, 0.74, 0.76, 0.95):
        z = ratio * r * cmath.exp(1j)
        head, _ = _start(z, ps)
        terms = _series_order(abs(head.base) / r)
        times = []
        for _ in range(repeat):
            t = time.perf_counter()
            eval_L(word, z, ps)
            times.append(time.perf_counter() - t)
        rows.append(f"|z|/r = {ratio}: {terms} series terms, head "
                    f"{'has segments' if head.segments else 'is empty'}, "
                    f"{1e3 * statistics.median(times):.3f} ms")
    return block(f"eval_L of (-1, 0^5) on {{0, 1, -1}} at |z|/r on the ray "
                 f"at 1 radian, median of {repeat} wall times:", rows)


# a child's own peak resident set (VmHWM) after mzv of (1, 0^3999)
PEAK_CHILD = """from curvelog import mzv
mzv(('1',) + ('0',) * 3999)
print(next(int(line.split()[1]) for line in open('/proc/self/status')
           if line.startswith('VmHWM:')))
"""


def series(repeat: int = 5) -> list:
    """mzv sums two series at one half, expand_at steps one at a puncture,
    several rows at the order cap and by letters whose ratio w is not 1,
    -1, i or -i, eval_L builds the prefix closure of a long word, mzv's
    peak memory follows one prefix set, and a word whose prefixes pass the
    array cap is refused before any is built."""
    from curvelog import eval_L, expand_at, mzv
    calls = {}
    for n in (10, 100, 1000):
        calls[f"mzv of (1, 0^{n - 1})"] = functools.partial(
            mzv, ("1",) + ("0",) * (n - 1))
    for n in (4, 16, 64):
        calls[f"expand_at of (0, 1)^{n // 2} at 1 on {{0, 1}}"] = (
            functools.partial(expand_at, ("0", "1") * (n // 2), "0,1", 1))
    calls["expand_at of (0, 1, -1) at 0 on {0, 1, -1}, order 4,095"] = (
        functools.partial(expand_at, ("0", "1", "-1"), "0,1,-1", 0, 4095))
    calls["expand_at of (0, 1+i, 3-2i) at 0 on {0, 1+i, 3-2i}, "
          "order 1,000"] = functools.partial(
        expand_at, ("0", "1+i", "3-2i"), "0,1+i,3-2i", 0, 1000)
    rows = [f"{label}: {1e3 * best(call, repeat):.2f} ms"
            for label, call in calls.items()]
    word = ("1",) + ("0",) * 999
    t = time.perf_counter()
    eval_L(word, 0.5, "0,1")
    rows.append(f"eval_L of (1, 0^999) at 1/2, one wall time: "
                f"{1e3 * (time.perf_counter() - t):.1f} ms")
    proc, _ = python("-c", PEAK_CHILD, text=True)
    peak = (f"{int(proc.stdout) / 1024:.1f} MB" if proc.returncode == 0
            else f"exit {proc.returncode}")
    rows.append(f"peak resident set of a process running mzv of "
                f"(1, 0^3999): {peak}")
    proc, wall = python("-m", "curvelog.cli", "mzv", "--word",
                        ",".join(("1",) + ("0",) * 19_999))
    rows.append(f"curvelog mzv on 20,000 letters: exit {proc.returncode} "
                f"in {wall:.2f} s, {len(proc.stdout)} bytes on stdout")
    return block(f"series entry points, min of {repeat} wall times:", rows)


def exact(repeat: int = 5) -> list:
    """The exact layer's wall time, one operation per exact-reduce shape,
    summed by kind: the first pass over the fresh plan, whose pole sets no
    operation has reduced yet (as in the benchmark, where each operation
    has a new one), the least of repeat passes, where every per-pole-set
    cache is warm, and that least over normal_form's, which a shared
    runner moves less."""
    wl = workloads()
    shapes = wl.build_plan("exact-reduce", 1, 1)
    kinds = wl.EXACT_KINDS
    least = dict.fromkeys(kinds, math.inf)
    first = None
    for _ in range(repeat):
        spent = dict.fromkeys(kinds, 0.0)
        for op in shapes.ops:
            t = time.perf_counter()
            wl.execute(shapes, op)
            spent[op.shape[0]] += time.perf_counter() - t
        first = first or spent
        least = {k: min(least[k], spent[k]) for k in kinds}
    return block(
        f"exact-reduce, the {len(shapes.ops)} shapes at seed 1, wall time by "
        f"kind: the first pass (fresh pole sets), the min of {repeat} passes "
        f"(warm), and the min over normal_form's:",
        (f"{k}: first {1e3 * first[k]:.2f} ms, min of {repeat} "
         f"{1e3 * least[k]:.2f} ms, {least[k] / least['normal_form']:.2f}× "
         f"normal_form" for k in kinds))


def options() -> list:
    """Each subcommand's usage line, wrapped or not, up to its first blank
    line."""
    from curvelog.cli import _SUBCOMMANDS
    usages = []
    for command in _SUBCOMMANDS:
        proc, _ = python("-m", "curvelog.cli", command, "--help", text=True)
        usages += proc.stdout.split("\n\n", 1)[0].splitlines()
    return ["curvelog subcommand options:", "", "```", *usages, "```"]


# ------------------------------------------------------------------ gates

def digest() -> tuple:
    """The SHA-256 over the exact-reduce results of seeds 1, 3 and 11, five
    cycles each, in plan order: its line, and whether it is the kept one
    over 540 results."""
    wl = workloads()
    sha, count = hashlib.sha256(), 0
    for seed in (1, 3, 11):
        ops = wl.build_plan("exact-reduce", seed, 5)
        for op in ops.ops:
            result, kind = wl.execute(ops, op), op.shape[0]
            if kind == "normal_form":
                obj = result.to_json()
            elif kind == "decompose_subker":
                obj = [curvelog.tensor_to_json(part,
                                               lambda a: a.f.to_json())
                       for part in result]
            else:
                obj = bool(result)
            sha.update(json.dumps(obj, sort_keys=True).encode())
            count += 1
    got = sha.hexdigest()
    return ([f"{count} exact-reduce results: sha256 {got}"],
            count == 540 and got == DIGEST)


def smoke_rows(workload: str, last: str) -> tuple:
    """A benchmark run's summary rows from the last line of its stdout,
    and whether every result was checked and none failed."""
    try:
        r = json.loads(last)
    except ValueError:
        return [f"{workload}: no result line"], False
    return (block(f"{workload}: correct {r['correct']}, failed "
                  f"{r['failed']} of {r['attempted']}",
                  (f"{name}: {m['value']:.4g} {m['unit']}"
                   for name, m in r["metrics"].items())),
            r["correct"] is True and r["failed"] == 0)


def smoke() -> tuple:
    """Each benchmark workload once, briefly (``bench/run.py``, seed 1,
    one second): its rows, and whether all of them passed."""
    out, ok = [], True
    for workload in workloads().WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload,
             "--seed", "1", "--seconds", "1"],
            stdout=subprocess.PIPE, text=True)
        rows, passed = smoke_rows(workload,
                                  (proc.stdout.splitlines() or [""])[-1])
        if out:
            out.append("")
        out += rows
        ok = ok and passed and proc.returncode == 0
    return out, ok


REPORTS = {"lines": lines, "monodromy": monodromy, "systems": systems,
           "disk": disk, "series": series, "exact": exact,
           "options": options, "workload-lines": workload_lines,
           "cold": cold}
GATES = {"digest": digest, "smoke": smoke}


def main(argv) -> int:
    steps = [*REPORTS, *GATES]
    if len(argv) != 1 or argv[0] not in steps:
        print(f"usage: ci_reports.py {{{','.join(steps)}}}", file=sys.stderr)
        return 2
    step = argv[0]
    out, ok = GATES[step]() if step in GATES else (REPORTS[step](), True)
    print("\n".join(out))
    print()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
