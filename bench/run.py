"""Benchmark of curvelog through its public API, measured from outside.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Workloads (see workloads.py): eval-points, monodromy-loops, exact-reduce.
Each run compiles curvelog's bytecode in an untimed step, times set-up in
fresh processes, then starts one worker process that runs the seeded
operation list in a closed loop with one client, with BLAS and OpenMP
pinned to one thread, and checks every result against an oracle that does
not use curvelog's integrator.

With ``--trace 0`` the last line of stdout carries the end-to-end metrics;
with ``--trace 1`` the worker runs a shorter list untraced and then traced,
and the last line carries the per-layer metrics.  The lines before it are a
report: bytecode state, set-up samples, the latency tail's percentile and
sample count, the reference kernel around the run, exclusions and failures.
"""

from __future__ import annotations

import os

# pin native thread pools before numpy is imported here or in a child
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import compileall  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import machine  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PACKAGE = ROOT / "src" / "curvelog"
WORKER = BENCH / "worker.py"

WORKLOADS = ("eval-points", "monodromy-loops", "exact-reduce")
SETUP_SAMPLES = 11
# a run must end within 180 s; the worker gets what is left of this
RUN_BUDGET_S = 170.0


def compile_bytecode() -> dict:
    """Compile curvelog and the benchmark untimed, so that no timed import
    pays for compilation; returns how many modules had bytecode before."""
    sources = sorted(PACKAGE.glob("*.py")) + sorted(BENCH.glob("*.py"))

    def cached():
        return sum(Path(importlib.util.cache_from_source(str(p))).is_file()
                   for p in sources)

    before = cached()
    ok = all(compileall.compile_file(str(p), quiet=2) for p in sources)
    return {"modules": len(sources), "cached_before": before,
            "cached_after": cached(), "compiled_ok": ok}


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    return env


def worker_cmd(args, cycles: int, *extra) -> list:
    return [sys.executable, str(WORKER), "--workload", args.workload,
            "--seed", str(args.seed), "--cycles", str(cycles), *extra]


def setup_times(args, cycles: int):
    """Wall times in ns of fresh processes that import curvelog and build
    the workload's fixed objects, each with the machine probe the process
    takes at its end; the first, which warms the file cache, is dropped.
    The wait has no timeout, because a timed wait polls and would round the
    end of the process up by tens of milliseconds."""
    times, probes = [], []
    for _ in range(SETUP_SAMPLES + 1):
        t0 = time.perf_counter_ns()
        proc = subprocess.run(worker_cmd(args, cycles, "--setup-only"),
                              check=True, env=worker_env(), cwd=ROOT,
                              stdout=subprocess.PIPE, text=True)
        times.append(time.perf_counter_ns() - t0)
        probes.append(float(proc.stdout))
    return times[1:], probes[1:]


def run_worker(args, cycles: int, deadline: float) -> dict:
    extra = ("--trace",) if args.trace else ()
    proc = subprocess.run(worker_cmd(args, cycles, *extra), check=True,
                          env=worker_env(), cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=max(1.0, deadline - time.monotonic()))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(latencies_ns: list):
    """The highest percentile with at least ten samples beyond it, in ms,
    with that percentile."""
    ordered = sorted(latencies_ns)
    n = len(ordered)
    rank = max(0, n - 11)
    return ordered[rank] / 1e6, 100.0 * (rank + 1) / n


def timings(latencies_ns: list) -> dict:
    tail_ms, _ = tail(latencies_ns)
    return {
        "ops_per_s": (len(latencies_ns) / (sum(latencies_ns) / 1e9), "1/s"),
        "latency_p50_ms": (statistics.median(latencies_ns) / 1e6, "ms"),
        "latency_tail_ms": (tail_ms, "ms"),
    }


def end_to_end(res: dict, setup_s: list) -> dict:
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        **timings(machine.scaled(res["latencies_ns"], res["probes_ns"])),
        "peak_rss_mb": (res["rss_kb"] / 1024.0, "MB"),
        "accuracy_digits": (res["check"]["accuracy_digits"], "digits"),
    }


def per_layer(res: dict, ref_ms: float) -> dict:
    metrics = dict(res["per_layer"])
    untraced = sum(machine.scaled(res["latencies_ns"], res["probes_ns"]))
    traced = sum(machine.scaled(res["traced_latencies_ns"],
                                res["traced_probes_ns"]))
    metrics["tracing.overhead_pct"] = (100.0 * (traced / untraced - 1.0), "%")
    metrics["tracing.unaccounted_pct"] = (
        100.0 * res["unaccounted_s"] * 1e9 / sum(res["traced_latencies_ns"]), "%")
    metrics["env.ref_kernel_ms"] = (ref_ms, "ms")
    for name, row in res["baseline"].items():
        metrics[f"baseline.{name}.ms"] = (row["ms"], "ms")
        metrics[f"baseline.{name}.digits"] = (row["digits"], "digits")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_BUDGET_S
    if not (PACKAGE / "__init__.py").is_file() or not (ROOT / "tests" / "oracles.py").is_file():
        print(f"curvelog sources or tests/oracles.py not found under {ROOT}",
              file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("--seconds must be at least 1", file=sys.stderr)
        return 2

    bytecode = compile_bytecode()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    cycles = workloads.cycles_for(args.workload, args.seconds, bool(args.trace))
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "cycles": cycles,
              "bytecode": bytecode}
    ref_before = machine.ref_kernel_ms()
    setup_ns, setup_probes = ([], []) if args.trace else setup_times(args, cycles)
    res = run_worker(args, cycles, deadline)
    ref_after = machine.ref_kernel_ms()
    ref_ms = statistics.median([ref_before, ref_after])

    lat = res["latencies_ns"]
    _, tail_pct = tail(lat)
    setup_s = [t / 1e9 for t in machine.scaled(setup_ns, setup_probes)]
    checked = [res["check"]] + ([res["check_traced"]] if args.trace else [])
    attempted = len(lat) * len(checked)
    failed = sum(c["failed"] for c in checked)
    correct = (failed == 0 and res["oracle_crosscheck"]["ok"]
               and bytecode["compiled_ok"]
               and all(row["ok"] for row in res.get("baseline", {}).values()))
    report.update({
        "operations": len(lat),
        "setup_samples_s": [round(s, 4) for s in setup_s],
        "latency_tail": {"percentile": round(tail_pct, 2), "samples": len(lat)},
        "probe_us": statistics.median(res["probes_ns"]) / 1e3,
        "wall": {"setup_s": statistics.median(setup_ns) / 1e9 if setup_ns else None,
                 **{k: v for k, (v, _) in timings(lat).items()}},
        "env.ref_kernel_ms": {"before": ref_before, "after": ref_after},
        "oracle_crosscheck": res["oracle_crosscheck"],
        "checks": checked,
    })
    if args.trace:
        report["baseline"] = res["baseline"]
        metrics = per_layer(res, ref_ms)
    else:
        metrics = end_to_end(res, setup_s)
    print("report " + json.dumps(report))
    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
