"""The benchmark's own checks.

    python3 -m pytest bench/test_bench.py
"""

import copy
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import curvelog as cl  # noqa: E402
import machine  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import ROOT_SPAN, Tracer  # noqa: E402
from worker import run_pass  # noqa: E402


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_two_seeds_give_the_same_shapes(workload):
    a = wl.build_plan(workload, 1, 2)
    b = wl.build_plan(workload, 2, 2)
    assert [op.shape for op in a.ops] == [op.shape for op in b.ops]
    assert [op.params for op in a.ops] != [op.params for op in b.ops]


def test_same_seed_gives_the_same_inputs():
    a = wl.build_plan("eval-points", 7, 1)
    b = wl.build_plan("eval-points", 7, 1)
    assert [op.params for op in a.ops] == [op.params for op in b.ops]


def test_one_eval_L_yields_one_span_per_stage():
    ps = cl.PoleSet.of("0,1,-1")
    tracer = Tracer()
    tracer.install()
    try:
        root = tracer.open(ROOT_SPAN)
        cl.eval_L(("0", "-1", "0"), 0.3 + 0.2j, ps)
        tracer.close(root)
    finally:
        tracer.uninstall()
    times = tracer.self_times()
    calls = {name: entry[1] for name, entry in times.items()}
    assert calls["hyperlog.eval_L"] == 1
    assert calls["iterint.integrate"] == 1
    assert calls["hyperlog.regularize"] == 1
    assert calls["iterint.plan_path"] == 1
    # self times partition the root span
    total = tracer.end[root] - tracer.start[root]
    assert sum(entry[0] for entry in times.values()) == pytest.approx(total)


def test_uninstall_restores_every_binding():
    before = (cl.eval_L, cl.hyperlog.integrate_h_words,
              cl.monodromy.integrate_h_words, cl.QI.__mul__, cl.QI.__rmul__)
    tracer = Tracer()
    tracer.install()
    assert cl.hyperlog.integrate_h_words is not before[1]
    assert cl.QI.__rmul__ is not before[4]
    tracer.uninstall()
    assert (cl.eval_L, cl.hyperlog.integrate_h_words,
            cl.monodromy.integrate_h_words, cl.QI.__mul__,
            cl.QI.__rmul__) == before


def _first(plan, predicate):
    return next(op for op in plan.ops if predicate(op))


def test_eval_oracle_rejects_a_perturbed_value():
    plan = wl.build_plan("eval-points", 3, 1)
    op = _first(plan, lambda op: op.shape[2] == "leading-zeros"
                and checks.sheet_exclusion(op.params["point"],
                                           plan.context["poles"][op.shape[0]]) is None)
    _, _, [rec] = run_pass(plan, [op])
    assert checks.check_eval(plan, op, rec)[0] == "ok"
    rec["value"] *= 1 + 1e-6
    assert checks.check_eval(plan, op, rec)[0] == "failed"


def test_eval_oracle_excludes_a_detour_around_the_origin():
    ps = cl.PoleSet.of("0,1")
    # the straight path from 0.5 passes just above the origin; the planned
    # detour passes below it
    assert "around 0" in checks.sheet_exclusion(-0.5 + 0.05j, ps)
    assert checks.sheet_exclusion(-0.5 - 0.05j, ps) is None


def test_closed_forms_match_known_values():
    # L(0,1)(1/2) = log(1/2)^2 + Li2(1/2), and -Li2 at 1/2 is the frozen
    # constant's negative
    ref = checks.crosscheck_frozen(BENCH.parent)
    assert ref["ok"]
    assert checks.hyperlog_closed_form(("0", "1"), 0.5, 1.0) == pytest.approx(
        1.0626935403832139, abs=1e-15)


def test_loop_oracle_rejects_perturbed_values():
    plan = wl.build_plan("monodromy-loops", 5, 1)
    ops = plan.ops[:2]
    run_pass(plan, plan.warmup[-1:])
    _, _, recs = run_pass(plan, ops)
    for op, rec in zip(ops, recs):
        assert checks.check_loop(plan, op, rec)[0] == "ok"
    basis = plan.context["basis"][5]
    s = ops[0].params["label"]
    for key, word in (("column", (s, s, s)), ("column", ()), ("acted", (s,))):
        bad = copy.deepcopy(recs[0])
        bad[key][basis.index(word)] *= 1 + 1e-6
        assert checks.check_loop(plan, ops[0], bad)[0] == "failed"
    bad = copy.deepcopy(recs[0])
    bad["offpattern"] = 1e-300
    assert checks.check_loop(plan, ops[0], bad)[0] == "failed"
    bad = copy.deepcopy(recs[1])
    basis6 = plan.context["basis"][6]
    s6 = ops[1].params["label"]
    bad["product_column"][basis6.index((s6,))] *= 1 + 1e-6
    assert checks.check_loop(plan, ops[1], bad)[0] == "failed"


def test_exact_oracle_rejects_perturbed_results():
    plan = wl.build_plan("exact-reduce", 4, 1)
    ops = plan.ops[:4]
    kinds = [op.shape[0] for op in ops]
    assert kinds == list(wl.EXACT_KINDS)
    _, _, recs = run_pass(plan, ops)
    for op, rec in zip(ops, recs):
        assert checks.check_exact(plan, op, rec)[0] == "ok"
    nf_op, dsk_op, member_op, outsider_op = ops
    nf = recs[0]["nf"]
    word, f = nf.terms[0]
    one = cl.RationalFunction.const(nf.poles, 1)
    shifted = cl.NormalForm(nf.poles, nf.section, nf.basepoint,
                            ((word, f + one),) + nf.terms[1:])
    assert checks.check_exact(plan, nf_op, {"nf": shifted})[0] == "failed"
    section = dsk_op.params["section"]
    x = cl.ShuffleTensor.from_word(section.word(section.poles.labels[:1]))
    bad = {"sub": recs[1]["sub"] - x, "ker": recs[1]["ker"] + x}
    assert checks.check_exact(plan, dsk_op, bad)[0] == "failed"
    assert checks.check_exact(plan, member_op, {"member": False})[0] == "failed"
    assert checks.check_exact(plan, outsider_op, {"member": True})[0] == "failed"


def test_tail_has_ten_samples_beyond_it():
    lat = list(range(1, 101))
    value_ms, pct = run.tail([v * 1_000_000 for v in lat])
    assert sum(v > value_ms for v in lat) == 10
    assert pct == pytest.approx(90.0)


def test_scaling_follows_the_probe_and_ignores_one_outlier():
    nominal = machine.PROBE_NOMINAL_NS
    assert machine.scaled([1000, 1000], [2 * nominal] * 2) == [500, 500]
    probes = [nominal] * 5
    probes[2] = 50 * nominal
    assert machine.scaled([1000] * 5, probes)[2] == 1000
