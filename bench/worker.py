"""The benchmark's client process: imports curvelog, builds the seeded
operation list and runs it in a closed loop with one client, then checks
every result.  ``run.py`` starts it; it prints one JSON object on stdout.

    worker.py --workload W --seed N --cycles C [--setup-only | --trace]
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import curvelog as cl  # noqa: E402
import machine  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import ROOT_SPAN, Tracer  # noqa: E402


def run_pass(plan, ops, tracer=None):
    """Run the operations one after another.  Returns the time of each in
    nanoseconds, the machine probe taken right before it, and what its
    check needs."""
    latencies, probes, records = [], [], []
    clock = time.perf_counter_ns
    for op in ops:
        probes.append(machine.probe_ns())
        root = tracer.open(ROOT_SPAN) if tracer else None
        t0 = clock()
        try:
            result = wl.execute(plan, op)
        except Exception as exc:  # a failed operation is counted, not fatal
            result = exc
        t1 = clock()
        if tracer:
            tracer.close(root)
        latencies.append(t1 - t0)
        if isinstance(result, Exception):
            records.append({"error": f"{type(result).__name__}: {result}"})
        else:
            records.append(wl.extract(plan, op, result))
    return latencies, probes, records


def _timed(fn):
    t0 = time.perf_counter()
    value = fn()
    return time.perf_counter() - t0, value


def baseline_rows() -> dict:
    """The single-call rows of the ROADMAP baseline, each with its error
    against an oracle that does not use the integrator."""
    rows = {}

    def eval_row(name, word, z, poles, letter):
        ps = cl.PoleSet.of(poles)
        seconds, got = _timed(lambda: cl.eval_L(word, z, ps))
        want = checks.hyperlog_closed_form(word, z, ps.as_complex[ps.index(letter)])
        rows[name] = (seconds, checks.scaled_error(complex(got), want))

    eval_row("eval_L.w2", ("0", "1"), 0.5, "0,1", "1")
    eval_row("eval_L.w4", ("1", "0", "0", "0"), 0.3 + 0.4j, "0,1", "1")
    eval_row("eval_L.w6", ("-1", "0", "0", "0", "0", "0"), 0.3 + 0.4j,
             "0,1,-1", "-1")
    seconds, got = _timed(lambda: cl.mzv(("1", "0")))
    rows["mzv.w2"] = (seconds, checks.scaled_error(got, checks.mzv_depth_one(("1", "0"))))

    ps = cl.PoleSet.of("0,1,-1")
    section = cl.Section.standard(ps)
    loop = cl.loop_around(ps, "0", 1j)
    for weight in (5, 6, 7):
        seconds, m = _timed(lambda: cl.monodromy_operator(loop, section, weight=weight))
        err = checks.compare_column(m.basis, m.matrix[:, 0],
                                     lambda w: checks.loop_value(w, "0"))
        rows[f"monodromy_operator.w{weight}"] = (seconds, err)
        del m

    ps4 = cl.PoleSet.of("0,1,-1,1/2")
    sec4 = cl.Section.standard(ps4)
    x0 = cl.default_basepoint(ps4)

    def letter(i, order, j=None):
        pp = {(i, order): cl.QI.of(1)}
        if j is not None:
            pp[(j, 1)] = cl.QI.of(-2)
        return cl.Differential(cl.RationalFunction(ps4, (), tuple(pp.items())))

    t = (cl.ShuffleTensor.from_word((letter(0, 2), letter(1, 1, 2),
                                     letter(3, 1), letter(2, 1, 0)))
         + cl.ShuffleTensor.from_word((letter(3, 2), letter(2, 1, 1),
                                       letter(0, 1), letter(1, 1, 3)), "1/2"))
    seconds, nf = _timed(lambda: cl.normal_form(t, sec4, x0))
    exact = checks.normal_form_holds(t, nf, sec4, x0, {})
    rows["normal_form.p4w4"] = (seconds, 0.0 if exact else 1.0)
    return {name: {"ms": s * 1e3, "error": err, "digits": checks.digits(err),
                   "ok": err <= checks.TOLERANCE}
            for name, (s, err) in rows.items()}


def timed_run(args) -> dict:
    plan = wl.build_plan(args.workload, args.seed, args.cycles)
    run_pass(plan, plan.warmup)
    gc.collect()
    latencies, probes, records = run_pass(plan, plan.ops)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"latencies_ns": latencies, "probes_ns": probes, "rss_kb": rss_kb,
            "check": checks.check_all(plan, plan.ops, records)}


def traced_run(args) -> dict:
    """Untraced and traced cycles in turn, each on its own copy of the same
    list, so that machine drift hits both alike and the traced pass finds
    no values cached on objects by the untraced one."""
    untraced = wl.build_plan(args.workload, args.seed, args.cycles)
    traced = wl.build_plan(args.workload, args.seed, args.cycles)
    for plan in (untraced, traced):
        run_pass(plan, plan.warmup)
    gc.collect()
    tracer = Tracer()
    per_cycle = len(untraced.ops) // args.cycles
    lat_u, probe_u, rec_u, lat_t, probe_t, rec_t = [], [], [], [], [], []
    for c in range(args.cycles):
        window = slice(c * per_cycle, (c + 1) * per_cycle)
        lat, probe, rec = run_pass(untraced, untraced.ops[window])
        lat_u += lat
        probe_u += probe
        rec_u += rec
        tracer.install()
        try:
            lat, probe, rec = run_pass(traced, traced.ops[window], tracer)
        finally:
            tracer.uninstall()
        lat_t += lat
        probe_t += probe
        rec_t += rec
    return {
        "latencies_ns": lat_u, "probes_ns": probe_u,
        "traced_latencies_ns": lat_t, "traced_probes_ns": probe_t,
        "per_layer": tracer.per_layer(len(traced.ops)),
        "unaccounted_s": tracer.self_times()[ROOT_SPAN][0],
        "baseline": baseline_rows(),
        "check": checks.check_all(untraced, untraced.ops, rec_u),
        "check_traced": checks.check_all(traced, traced.ops, rec_t),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--cycles", type=int, required=True)
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    if args.setup_only:
        wl.build_context(args.workload)
        print(statistics.median(machine.probe_ns() for _ in range(3)))
        return 0
    out = traced_run(args) if args.trace else timed_run(args)
    out["oracle_crosscheck"] = checks.crosscheck_frozen(ROOT)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
