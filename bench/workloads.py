"""Seeded operation lists for the benchmark workloads.

Every seed yields the same cycle of operation shapes; the seed only picks
the pole labels, points and exact coefficients that fill each shape.  A run
does a fixed number of whole cycles, sized from ``--seconds`` by a nominal
rate, so a slow run does the same work as a fast one.

This module is imported by the worker process that times curvelog, so it
must not import mpmath or anything else the timed operations do not need.
Calls go through the ``curvelog`` package attributes so that the tracer's
wrappers see them.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

import curvelog as cl

WORKLOADS = ("eval-points", "monodromy-loops", "exact-reduce")

# Operations per second measured with the default integrator settings on a
# 2-core Xeon sandbox.  They only size the fixed operation list so that the
# timed part of a run lasts about the requested number of seconds.
NOMINAL_OPS_PER_S = {
    "eval-points": 65.0,
    "monodromy-loops": 3.5,
    "exact-reduce": 45.0,
}

# The traced run does this share of the untraced run's cycles twice, once
# untraced and once traced, so that it takes about as long as an untraced run.
TRACE_SHARE = 0.5


@dataclass
class Op:
    index: int
    shape: tuple
    params: dict = field(default_factory=dict)


@dataclass
class Plan:
    workload: str
    warmup: list
    ops: list
    context: dict


# ---------------------------------------------------------------- eval-points

EVAL_POLE_SETS = ("0,1", "0,1,-1", "0,1,-1,i")
# polylog: (a, 0^(n-1)); power: a^n; leading-zeros: (0^k, a, 0^(n-1-k)) with
# k >= 1, which makes eval_L regularize at the origin.
EVAL_FAMILIES = ("polylog", "power", "leading-zeros")
EVAL_SHAPES = tuple((poles, weight, family)
                    for poles in EVAL_POLE_SETS
                    for weight in range(2, 7)
                    for family in EVAL_FAMILIES)


def eval_word(shape, letter: str) -> tuple:
    """The label word of an eval-points shape, with ``letter`` as its one
    letter away from the origin."""
    _, n, family = shape
    if family == "polylog":
        return (letter,) + ("0",) * (n - 1)
    if family == "power":
        return (letter,) * n
    k = n // 2
    return ("0",) * k + (letter,) + ("0",) * (n - 1 - k)


def _eval_point(rng: random.Random) -> complex:
    # inside the unit disk, at least 0.25 from every puncture and off the
    # real axis, so that the straight path from the reference point 0.5
    # does not run through the origin
    while True:
        r, t = rng.uniform(0.25, 0.75), rng.uniform(-math.pi, math.pi)
        z = r * complex(math.cos(t), math.sin(t))
        if abs(z.imag) >= 0.02:
            return z


def _eval_ops(rng, cycles, ctx):
    ops = []
    for _ in range(cycles):
        for shape in EVAL_SHAPES:
            ps = ctx["poles"][shape[0]]
            letter = rng.choice([lab for lab in ps.labels if lab != "0"])
            ops.append(Op(len(ops), shape,
                          {"word": eval_word(shape, letter),
                           "point": _eval_point(rng), "letter": letter}))
    return ops


def _eval_context():
    return {"poles": {spec: cl.PoleSet.of(spec) for spec in EVAL_POLE_SETS}}


# ------------------------------------------------------------ monodromy-loops

MONO_POLES = "0,1,-1"
# (weight, job): weight 5 runs unipotence_check and act, weight 6 multiplies
# with the operator of the previous weight-6 job.  A weight-6 job costs about
# twice a weight-5 one; with two weight-5 jobs per weight-6 job the median
# falls inside the weight-5 jobs and the tail inside the weight-6 ones, not
# on the edge between them.
MONO_SHAPES = ((5, "unipotence+act"), (6, "matmul"), (5, "unipotence+act")) * 2
# Loops are based at distance 1 from their puncture, at an angle where the
# planner needs no detour, so every loop is congruent and costs the same.
MONO_BASE_DISTANCE = 1.0


def _mono_ops(rng, cycles, ctx):
    ps = ctx["poles"]
    ops = []
    for _ in range(cycles):
        for shape in MONO_SHAPES:
            label = rng.choice(ps.labels)
            theta = rng.uniform(math.pi / 3, 2 * math.pi / 3)
            if rng.random() < 0.5:
                theta = -theta
            s = ps.as_complex[ps.index(label)]
            base = s + MONO_BASE_DISTANCE * complex(math.cos(theta), math.sin(theta))
            c = 0.5 * complex(math.cos(t := rng.uniform(0, 2 * math.pi)), math.sin(t))
            params = {"label": label, "base": base, "act_c": c}
            if shape[0] == 5:
                params["act_vector"] = {w: c ** len(w) for w in ctx["basis"][5]}
            ops.append(Op(len(ops), shape, params))
    return ops


def _mono_context():
    ps = cl.PoleSet.of(MONO_POLES)
    ctx = {"poles": ps, "section": cl.Section.standard(ps), "prev6": None,
           "basis": {}, "offpattern": {}}
    for weight in sorted({w for w, _ in MONO_SHAPES}):
        basis = cl.label_words(ps, weight)
        ctx["basis"][weight] = basis
        ctx["offpattern"][weight] = _off_pattern_mask(basis)
    return ctx


def _off_pattern_mask(basis) -> np.ndarray:
    """True where the operator entry (w, v) must vanish: v not a suffix of w."""
    n = len(basis)
    mask = np.ones((n, n), dtype=bool)
    index = {w: i for i, w in enumerate(basis)}
    for i, w in enumerate(basis):
        for k in range(len(w) + 1):
            mask[i, index[w[k:]]] = False
    return mask


def _max_off_pattern(matrix: np.ndarray, mask: np.ndarray) -> float:
    worst = 0.0
    for r in range(0, matrix.shape[0], 128):
        block = matrix[r:r + 128][mask[r:r + 128]]
        if block.size:
            worst = max(worst, float(np.max(np.abs(block))))
    return worst


# --------------------------------------------------------------- exact-reduce

EXACT_PALETTE = ("0", "1", "-1", "2", "1/2", "-2", "-1/2", "3")
EXACT_COEFFS = (Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2))
EXACT_SIZES = ((2, 2), (3, 3), (4, 4), (2, 3), (3, 4), (4, 2), (2, 4),
               (3, 2), (4, 3))
EXACT_KINDS = ("normal_form", "decompose_subker", "kernel_member+",
               "kernel_member-")
EXACT_SHAPES = tuple((kind, npoles, weight)
                     for npoles, weight in EXACT_SIZES for kind in EXACT_KINDS)


def _qi(rng) -> "cl.QI":
    return cl.QI(rng.choice(EXACT_COEFFS))


def _exact_letter(rng, ps, position: int):
    """A differential with a fixed structure per word position: the first
    letter has a double pole, odd positions add a simple pole at another
    puncture."""
    order = 2 if position == 0 else 1
    i = rng.randrange(len(ps))
    pp = {(i, order): _qi(rng)}
    if position % 2:
        j = (i + 1 + rng.randrange(len(ps) - 1)) % len(ps)
        pp[(j, 1)] = _qi(rng)
    return cl.Differential(cl.RationalFunction(ps, (), tuple(pp.items())))


def _exact_tensor(rng, ps, weight: int):
    t = cl.ShuffleTensor.zero()
    for _ in range(2):
        word = tuple(_exact_letter(rng, ps, p) for p in range(weight))
        t = t + cl.ShuffleTensor.from_word(word, _qi(rng))
    return t


def _exact_generator(rng, ps, weight: int, x0):
    """A kernel tensor built from one generator, and its witness triple."""
    if weight >= 3:
        s = cl.ShuffleTensor.from_word((_exact_letter(rng, ps, 1),))
    else:
        s = cl.ShuffleTensor.unit()
    i = rng.randrange(len(ps))
    f = (cl.RationalFunction.const(ps, _qi(rng))
         + cl.RationalFunction.coordinate(ps).scale(_qi(rng))
         + cl.RationalFunction.pole_power(ps, i, 2, _qi(rng)))
    rest = weight - 1 - (1 if weight >= 3 else 0)
    sp = cl.ShuffleTensor.from_word(
        tuple(_exact_letter(rng, ps, p + 1) for p in range(rest)))
    witness = cl.KernelWitness(x0, ((s, f, sp),))
    return witness.tensor(), witness


def _exact_ops(rng, cycles, ctx):
    ops = []
    for _ in range(cycles):
        for shape in EXACT_SHAPES:
            kind, npoles, weight = shape
            ps = cl.PoleSet.of(rng.sample(EXACT_PALETTE, npoles))
            section = cl.Section.standard(ps)
            x0 = cl.default_basepoint(ps)
            params = {"section": section, "x0": x0}
            if kind.startswith("kernel_member"):
                t, witness = _exact_generator(rng, ps, weight, x0)
                params["witness"] = witness
                if kind == "kernel_member-":
                    u = tuple(rng.choice(ps.labels) for _ in range(weight - 1))
                    params["class_word"] = u
                    t = t + cl.ShuffleTensor.from_word(section.word(u))
            else:
                t = _exact_tensor(rng, ps, weight)
            params["tensor"] = t
            ops.append(Op(len(ops), shape, params))
    return ops


# ------------------------------------------------------------------ plans

_BUILDERS = {
    "eval-points": (_eval_context, _eval_ops, len(EVAL_SHAPES)),
    "monodromy-loops": (_mono_context, _mono_ops, len(MONO_SHAPES)),
    "exact-reduce": (lambda: {}, _exact_ops, len(EXACT_SHAPES)),
}


def cycles_for(workload: str, seconds: float, trace: bool = False) -> int:
    per_cycle = _BUILDERS[workload][2]
    cycles = max(1, round(seconds * NOMINAL_OPS_PER_S[workload] / per_cycle))
    if trace:
        cycles = max(1, round(cycles * TRACE_SHARE))
    return cycles


def build_context(workload: str) -> dict:
    """The workload's fixed objects: pole sets, sections and word bases."""
    return _BUILDERS[workload][0]()


def build_plan(workload: str, seed: int, cycles: int) -> Plan:
    """The seeded operation list: one warm-up cycle, then ``cycles`` timed
    cycles, each with the workload's fixed sequence of shapes."""
    make_ops = _BUILDERS[workload][1]
    ctx = build_context(workload)
    warmup = make_ops(random.Random(f"{workload}/{seed}/warmup"), 1, ctx)
    ops = make_ops(random.Random(f"{workload}/{seed}"), cycles, ctx)
    return Plan(workload, warmup, ops, ctx)


# ------------------------------------------------------------- execution

def execute(plan: Plan, op: Op):
    """Run one operation through curvelog's public API; this is the timed
    part of an operation."""
    p = op.params
    if plan.workload == "eval-points":
        ps = plan.context["poles"][op.shape[0]]
        return cl.eval_L(p["word"], p["point"], ps)
    if plan.workload == "monodromy-loops":
        ctx = plan.context
        weight = op.shape[0]
        loop = cl.loop_around(ctx["poles"], p["label"], p["base"])
        m = cl.monodromy_operator(loop, ctx["section"], weight=weight)
        if weight == 5:
            return m, cl.unipotence_check(m), m.act(p["act_vector"])
        # the first weight-6 job of the warm-up has no predecessor
        prev, prev_label = ctx["prev6"] or (m, p["label"])
        return m, m @ prev, prev_label
    kind = op.shape[0]
    t, section, x0 = p["tensor"], p["section"], p["x0"]
    if kind == "normal_form":
        return cl.normal_form(t, section, x0)
    if kind == "decompose_subker":
        return cl.decompose_subker(t, section, x0)
    return cl.kernel_member(t, section, x0)


def extract(plan: Plan, op: Op, result) -> dict:
    """What the checks need from a result, taken right after the operation
    and outside its timing, so that large operators are not kept alive."""
    if plan.workload == "eval-points":
        return {"value": complex(result)}
    if plan.workload == "monodromy-loops":
        ctx = plan.context
        weight = op.shape[0]
        m = result[0]
        mask = ctx["offpattern"][weight]
        rec = {"column": m.matrix[:, 0].copy(),
               "offpattern": _max_off_pattern(m.matrix, mask),
               "basis_ok": m.basis == tuple(ctx["basis"][weight])}
        if weight == 5:
            rec["unipotent"] = bool(result[1])
            rec["acted"] = np.array([result[2][w] for w in m.basis])
        else:
            prod = result[1]
            rec["prev_label"] = result[2]
            rec["product_column"] = prod.matrix[:, 0].copy()
            rec["product_offpattern"] = _max_off_pattern(prod.matrix, mask)
            ctx["prev6"] = (m, op.params["label"])
        return rec
    kind = op.shape[0]
    if kind == "normal_form":
        return {"nf": result}
    if kind == "decompose_subker":
        return {"sub": result[0], "ker": result[1]}
    return {"member": bool(result)}

