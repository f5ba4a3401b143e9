"""Oracles for the benchmark's operations.  None of them uses curvelog's
integrator.

- eval-points: closed forms in mpmath (polylogarithms and logarithms) on
  the principal sheet.  A point whose planned path winds around a puncture,
  compared with the straight path from the reference point, is excluded.
- monodromy-loops: loop identities.  Around a puncture s, the word s^n
  integrates to (2 pi i)^n / n!, a nonempty word without s to 0, and every
  operator entry outside the prefix/suffix pattern is exactly 0.
- exact-reduce: exact identities in curvelog's exact layer.  A normal form
  must have the derivative of the tensor's integral and its value at the
  basepoint; a kernel part must reduce to zero; a kernel generator must be
  certified by its witness.

A numeric value is compared by its scaled error |got - want| / max(1, |want|):
relative for values of size one or more, absolute below.
"""

from __future__ import annotations

import cmath
import importlib.util
import math
from collections import Counter

import curvelog as cl

# A numeric result is wrong when its scaled error exceeds this.
TOLERANCE = 1e-7
# Digits reported for an exact result, and the most a float result can get.
DIGITS_CAP = 16.0
_ORACLE_DPS = 25
_TWO_PI_I = 2j * math.pi


def scaled_error(got: complex, want: complex) -> float:
    return float(abs(got - want) / max(1.0, abs(want)))


def digits(err: float) -> float:
    return DIGITS_CAP if err <= 10.0 ** -DIGITS_CAP else -math.log10(err)


# ---------------------------------------------------------------- eval-points

def hyperlog_closed_form(word, z: complex, a: complex) -> complex:
    """The regularized hyperlogarithm at z of a label word whose letters are
    all "0" but for one or more copies of the letter at a (nonzero), in one
    of the forms a^n or (0^k, a, 0^m), on the principal sheet.

    L(a^n) = log(1 - z/a)^n / n!, L(a, 0^m) = -Li_{m+1}(z/a), and leading
    zeros follow from the shuffle of 0^k with (a, 0^m):
    log(z)^k/k! L(a 0^m) = sum_i C(m+k-i, k-i) L(0^i a 0^(m+k-i)).
    """
    import mpmath as mp

    word = tuple(word)
    n = len(word)
    nonzero = [i for i, lab in enumerate(word) if lab != "0"]
    with mp.workdps(_ORACLE_DPS):
        zz = mp.mpc(z)
        x = zz / mp.mpc(a)
        if len(nonzero) == n and len(set(word)) == 1:
            return complex(mp.log(1 - x) ** n / mp.factorial(n))
        if len(nonzero) != 1:
            raise ValueError(f"no closed form for the word {word!r}")
        k = nonzero[0]
        m = n - 1 - k
        logz = mp.log(zz)
        memo: dict = {}

        def g(i: int, j: int):
            if (i, j) not in memo:
                if i == 0:
                    memo[i, j] = -mp.polylog(j + 1, x)
                else:
                    acc = logz ** i / mp.factorial(i) * g(0, j)
                    for ii in range(i):
                        acc -= mp.binomial(j + i - ii, i - ii) * g(ii, j + i - ii)
                    memo[i, j] = acc
            return memo[i, j]

        return complex(g(k, m))


def _winding(path_points: list, p: complex) -> int:
    total = 0.0
    for u, v in zip(path_points, path_points[1:]):
        total += cmath.phase((v - p) / (u - p))
    return round(total / (2 * math.pi))


def _polyline(path, samples_per_arc: int = 32) -> list:
    pts = [path.base]
    for seg in path.segments:
        if isinstance(seg, cl.LineSeg):
            pts.append(seg.end)
        else:
            pts.extend(seg.point(k / samples_per_arc)
                       for k in range(1, samples_per_arc + 1))
    return pts


def sheet_exclusion(z: complex, ps) -> str | None:
    """Why the planned path to z leaves the principal sheet, or None.

    The closed forms are principal along the straight path from the
    reference point; the planner's detours are compared with it by the
    winding number of planned path + straight path back around each
    puncture."""
    z1 = cl.reference_point(ps)
    pts = _polyline(cl.plan_path(z1, z, ps)) + [z1]
    for p, lab in zip(ps.as_complex, ps.labels):
        n = _winding(pts, p)
        if n:
            return f"planned path winds {n:+d} around {lab}"
    return None


def check_eval(plan, op, rec):
    ps = plan.context["poles"][op.shape[0]]
    z = op.params["point"]
    reason = sheet_exclusion(z, ps)
    if reason:
        return "excluded", None, reason
    a = ps.as_complex[ps.index(op.params["letter"])]
    want = hyperlog_closed_form(op.params["word"], z, a)
    err = scaled_error(rec["value"], want)
    if err > TOLERANCE:
        return "failed", err, f"eval_L error {err:.2e} at {z:.4g}"
    return "ok", err, None


# ------------------------------------------------------------ monodromy-loops

def loop_value(word, s: str):
    """The integral of a class word around a loop encircling only s, where
    the loop identities fix it; None where they do not."""
    if all(lab == s for lab in word):
        return _TWO_PI_I ** len(word) / math.factorial(len(word))
    if s not in word:
        return 0j
    return None


def convolution_value(word, s: str, t: str):
    """Entry (word, ()) of the product of the operators of loops around s
    and t: the sum over cuts of the s-loop value of the prefix times the
    t-loop value of the suffix, where every term is fixed."""
    acc = 0j
    for k in range(len(word) + 1):
        left, right = loop_value(word[:k], s), loop_value(word[k:], t)
        if left == 0 or right == 0:
            continue
        if left is None or right is None:
            return None
        acc += left * right
    return acc


def compare_column(basis, column, expected) -> float:
    worst = 0.0
    for w, got in zip(basis, column):
        want = expected(w)
        if want is not None:
            worst = max(worst, scaled_error(got, want))
    return worst


def check_loop(plan, op, rec):
    weight = op.shape[0]
    basis = plan.context["basis"][weight]
    s = op.params["label"]
    problems = []
    if not rec["basis_ok"]:
        problems.append("operator basis differs from the canonical word basis")
    if rec["offpattern"] != 0:
        problems.append(f"entry {rec['offpattern']:.2e} outside the pattern")
    err = compare_column(basis, rec["column"], lambda w: loop_value(w, s))
    if weight == 5:
        if not rec["unipotent"]:
            problems.append("unipotence_check returned False")
        c = op.params["act_c"]

        def acted(w):
            acc = 0j
            for k in range(len(w) + 1):
                v = loop_value(w[:k], s)
                if v is None:
                    return None
                acc += v * c ** (len(w) - k)
            return acc

        err = max(err, compare_column(basis, rec["acted"], acted))
    else:
        t = rec["prev_label"]
        if rec["product_offpattern"] != 0:
            problems.append(f"product entry {rec['product_offpattern']:.2e} "
                            "outside the pattern")
        err = max(err, compare_column(basis, rec["product_column"],
                                       lambda w: convolution_value(w, s, t)))
    if err > TOLERANCE:
        problems.append(f"loop identity error {err:.2e}")
    if problems:
        return "failed", err, "; ".join(problems)
    return "ok", err, None


# --------------------------------------------------------------- exact-reduce

def _add(acc: dict, word, f):
    if f.is_zero:
        return
    prev = acc.get(word)
    total = f if prev is None else prev + f
    if total.is_zero:
        acc.pop(word, None)
    else:
        acc[word] = total


def normal_form_holds(t, nf, section, x0, verified: dict) -> bool:
    """The normal form has the tensor's derivative and basepoint value.

    d/dz sum_u f_u I_u = sum_u (f_u' I_u + f_u sigma_last(u) I_u[:-1]) must
    equal sum_w c_w omega_last(w) NF(w[:-1]), and f_()(x0) must equal the
    empty-word coefficient of t.  Class-word integrals are independent over
    rational functions, so both sides compare coefficient by coefficient.
    The normal forms of the shorter words are verified the same way, so the
    check is an induction on weight.
    """
    if nf.coefficient(()).evaluate_exact(x0) != t.coeff(()):
        return False
    lhs: dict = {}
    for u, f in nf.terms:
        _add(lhs, u, f.differentiate())
        if u:
            _add(lhs, u[:-1], f * section.form(u[-1]).f)
    rhs: dict = {}
    for w, c in t.terms.items():
        if not w:
            continue
        head = w[:-1]
        if head not in verified:
            head_t = cl.ShuffleTensor.from_word(head)
            head_nf = cl.normal_form(head_t, section, x0)
            ok = normal_form_holds(head_t, head_nf, section, x0, verified)
            verified[head] = head_nf if ok else None
        head_nf = verified[head]
        if head_nf is None:
            return False
        omega = w[-1].f.scale(c)
        for u, g in head_nf.terms:
            _add(rhs, u, g * omega)
    return lhs == rhs


def check_exact(plan, op, rec):
    kind = op.shape[0]
    p = op.params
    t, section, x0 = p["tensor"], p["section"], p["x0"]
    if kind == "normal_form":
        ok = normal_form_holds(t, rec["nf"], section, x0, {})
        reason = "normal form fails the derivative/basepoint identity"
    elif kind == "decompose_subker":
        sub, ker = rec["sub"], rec["ker"]
        ok = ((sub + ker - t).is_zero
              and cl.normal_form(ker, section, x0).is_zero)
        reason = "sub + ker differs from the tensor or ker is not in the kernel"
    elif kind == "kernel_member+":
        ok = rec["member"] and p["witness"].certifies(t)
        reason = "certified kernel tensor not recognised as a member"
    else:
        ok = not rec["member"]
        reason = f"tensor with the class word {p['class_word']} taken as a member"
    return ("ok", 0.0, None) if ok else ("failed", None, reason)


# ---------------------------------------------------------------- summaries

CHECKERS = {"eval-points": check_eval, "monodromy-loops": check_loop,
            "exact-reduce": check_exact}


def check_all(plan, ops, records) -> dict:
    """Check every result; an operation that raised counts as failed."""
    check = CHECKERS[plan.workload]
    failed, excluded, worst = [], Counter(), 0.0
    for op, rec in zip(ops, records):
        if "error" in rec:
            failed.append(f"op {op.index} {op.shape}: {rec['error']}")
            continue
        status, err, reason = check(plan, op, rec)
        if status == "failed":
            failed.append(f"op {op.index} {op.shape}: {reason}")
        elif status == "excluded":
            excluded[reason] += 1
        if err is not None:
            worst = max(worst, err)
    return {"failed": len(failed), "failures": failed[:20],
            "excluded": sum(excluded.values()), "exclusions": dict(excluded),
            "checked": len(ops) - len(failed) - sum(excluded.values()),
            "accuracy_digits": digits(worst)}


# ------------------------------------------------------- oracle cross-check

def mzv_depth_one(word) -> complex:
    """mpmath value of the limit at one of the word (1, 0^(k-1)), -zeta(k)."""
    import mpmath as mp

    word = tuple(word)
    if not word or word[0] != "1" or any(lab != "0" for lab in word[1:]):
        raise ValueError(f"no depth-one zeta value for {word!r}")
    with mp.workdps(_ORACLE_DPS):
        return complex(-mp.zeta(len(word)))


def crosscheck_frozen(root) -> dict:
    """Compare the mpmath oracle with the frozen constants of the test
    suite's oracle module."""
    import mpmath as mp

    spec = importlib.util.spec_from_file_location(
        "frozen_oracles", root / "tests" / "oracles.py")
    frozen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(frozen)
    with mp.workdps(_ORACLE_DPS):
        pairs = {
            "ZETA2": (-mzv_depth_one(("1", "0")), frozen.ZETA2),
            "ZETA3": (-mzv_depth_one(("1", "0", "0")), frozen.ZETA3),
            "LOG2": (complex(mp.log(2)), frozen.LOG2),
            "LI2_HALF": (-hyperlog_closed_form(("1", "0"), 0.5, 1.0),
                         frozen.LI2_HALF),
        }
    diffs = {name: abs(got - want) for name, (got, want) in pairs.items()}
    return {"ok": all(d <= 1e-15 for d in diffs.values()), "diffs": diffs}
