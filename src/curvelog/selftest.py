"""Runnable acceptance checks shared by the test suite and the CLI.

Each criterion is a deterministic function of the seed returning a pass
flag plus a short measurement summary.  Numeric claims are checked against
independent oracles (series summation, central differences, hand geometry)
rather than against the code under test, and exact claims are checked in
exact arithmetic.
"""

from __future__ import annotations

import cmath
import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np

from .curve_genus0 import Differential, PoleSet, RationalFunction, Section
from .errors import DomainError
from .hyperlog import _tensor_value, eval_L, eval_batch, mzv
from .iterint import (IntegratorConfig, Path, integrate_words,
                      integrate_h_words, plan_chain, plan_path)
from .local_expansion import expand_at
from .monodromy import (circle_loop, loop_around, monodromy_operator, pairing,
                        period_matrix, unipotence_check)
from .reduce import (d_map, decompose_subker, default_basepoint, nabla_sigma,
                     normal_form)
from .scalars import QI
from .shuffle_core import (ShuffleTensor, coradical_member, shuffle,
                           word_sort_key)

DEFAULT_SEED = 1729

# numeric criteria at 1e-8 or tighter lean on a stricter integrator tolerance
_TIGHT = IntegratorConfig(rtol=1e-12, atol=1e-14)


@dataclass(frozen=True)
class CriterionResult:
    number: int
    label: str
    passed: bool
    detail: str


def zeta_series_oracle(s: int, terms: int = 1_000_000) -> float:
    """Direct series summation with an Euler-Maclaurin tail estimate."""
    acc = math.fsum(n ** -s for n in range(terms, 0, -1))
    tail = (terms ** (1 - s) / (s - 1) - 0.5 * terms ** -s
            + s * terms ** (-s - 1) / 12.0)
    return acc + tail


def _rand_qi(rng: random.Random, span: int = 3) -> QI:
    return QI(Fraction(rng.randint(-span, span), rng.choice((1, 2))),
              Fraction(rng.randint(-span, span), rng.choice((1, 2))))


def _rand_rational(rng: random.Random, span: int = 4) -> QI:
    return QI(Fraction(rng.randint(-span, span), rng.choice((1, 2, 3))),
              Fraction(0))


def _rand_rf(rng: random.Random, ps: PoleSet, max_order: int = 2,
             force_nonconstant: bool = False) -> RationalFunction:
    f = RationalFunction.const(ps, _rand_qi(rng))
    if force_nonconstant or rng.random() < 0.6:
        c = _rand_qi(rng)
        if force_nonconstant and c.is_zero:
            c = QI.of(1)
        f = f + RationalFunction.coordinate(ps).scale(c)
    for i in range(len(ps)):
        for k in range(1, max_order + 1):
            if rng.random() < 0.35:
                f = f + RationalFunction.pole_power(ps, i, k).scale(_rand_qi(rng))
    return f


def _rand_point(rng: random.Random, ps: PoleSet, clearance: float = 0.35):
    for _ in range(1000):
        z = complex(rng.uniform(-1.6, 2.2), rng.uniform(-1.3, 1.3))
        if all(abs(z - p) >= clearance for p in ps.as_complex):
            return z
    raise RuntimeError("could not sample a clear point")


def _crit_mzv(seed: int):
    t0 = time.perf_counter()
    v2 = mzv(("1", "0"))
    dt2 = time.perf_counter() - t0
    t0 = time.perf_counter()
    v3 = mzv(("1", "0", "0"))
    dt3 = time.perf_counter() - t0
    e2 = abs(-v2 - zeta_series_oracle(2))
    e3 = abs(-v3 - zeta_series_oracle(3))
    ok = e2 < 1e-7 and e3 < 1e-7 and dt2 < 5.0 and dt3 < 5.0
    return ok, (f"depth-1 error {e2:.2e}, depth-1 weight-3 error {e3:.2e}, "
                f"times {dt2:.2f}s/{dt3:.2f}s")


def shuffle_identity_check(path: Path, a: ShuffleTensor, b: ShuffleTensor,
                           poles: PoleSet,
                           cfg: IntegratorConfig | None = None) -> float:
    """|I(a shuffle b) - I(a) I(b)| at the endpoint of the path."""
    prod = shuffle(a, b)
    words = set(a.terms) | set(b.terms) | set(prod.terms)
    vals, _, _ = integrate_words(path, words, poles, cfg)
    return abs(_tensor_value(prod, vals)
               - _tensor_value(a, vals) * _tensor_value(b, vals))


def _crit_shuffle(seed: int):
    rng = random.Random(seed * 100 + 2)
    ps = PoleSet.of("0,1")
    pool = [Differential(RationalFunction.pole_power(ps, 0, 1)),
            Differential(RationalFunction.pole_power(ps, 1, 1)),
            Differential(RationalFunction.const(ps, 1)),
            Differential(RationalFunction.pole_power(ps, 0, 2))]
    worst = 0.0
    for _ in range(50):
        la = rng.randint(1, 3)
        lb = rng.randint(1, 4 - la)
        ta = ShuffleTensor.from_word(tuple(rng.choice(pool) for _ in range(la)))
        tb = ShuffleTensor.from_word(tuple(rng.choice(pool) for _ in range(lb)))
        a = _rand_point(rng, ps)
        b = _rand_point(rng, ps)
        path = plan_path(a, b, ps)
        worst = max(worst, shuffle_identity_check(path, ta, tb, ps, _TIGHT))
    return worst < 1e-9, f"max product residual {worst:.2e} over 50 pairs"


def chain_rule_check(path1: Path, path2: Path, word, poles: PoleSet,
                     cfg: IntegratorConfig | None = None) -> float:
    """Residual of composing a word's integral through a midpoint.

    The full integral along path1 + path2 must equal the coproduct pairing:
    sum over cuts of (prefix along path1) times (suffix along path2).
    """
    word = tuple(word)
    full = integrate_words(path1 + path2, [word], poles, cfg)[0][word]
    pre, _, _ = integrate_words(path1, [word], poles, cfg)
    sufs = {word[k:] for k in range(len(word) + 1)}
    suf, _, _ = integrate_words(path2, sufs, poles, cfg)
    rhs = 0j
    for k in range(len(word) + 1):
        rhs += pre[word[:k]] * suf[word[k:]]
    return abs(full - rhs)


def _crit_chain(seed: int):
    rng = random.Random(seed * 100 + 3)
    ps = PoleSet.of("0,1")
    pool = [Differential(RationalFunction.pole_power(ps, 0, 1)),
            Differential(RationalFunction.pole_power(ps, 1, 1)),
            Differential(RationalFunction.const(ps, 1))]
    worst = 0.0
    for _ in range(50):
        w = tuple(rng.choice(pool) for _ in range(rng.randint(1, 4)))
        a = _rand_point(rng, ps)
        m = _rand_point(rng, ps)
        b = _rand_point(rng, ps)
        p1 = plan_path(a, m, ps)
        p2 = plan_path(m, b, ps)
        worst = max(worst, chain_rule_check(p1, p2, w, ps, _TIGHT))
    return worst < 1e-9, f"max composition residual {worst:.2e} over 50 splits"


def _crit_periods(seed: int):
    rng = random.Random(seed * 100 + 4)
    grid = [QI(Fraction(a, 2), Fraction(b, 2))
            for a in range(-4, 5) for b in range(-4, 5)]
    worst = 0.0
    for n in (1, 2, 3, 4):
        pts = rng.sample(grid, n)
        ps = PoleSet(tuple(pts))
        P = period_matrix(Section.standard(ps), cfg=_TIGHT)
        worst = max(worst, float(np.max(np.abs(P - 2j * math.pi * np.eye(n)))))
    ps3 = PoleSet(tuple(rng.sample(grid, 3)))
    min_det = math.inf
    for _ in range(10):
        corr = tuple(_rand_rf(rng, ps3, max_order=1, force_nonconstant=True)
                     for _ in range(3))
        P = period_matrix(Section(ps3, corr), cfg=_TIGHT)
        min_det = min(min_det, abs(np.linalg.det(P)))
    ok = worst < 1e-9 and min_det > 1e-3
    return ok, (f"max deviation from 2*pi*i*Id {worst:.2e}, "
                f"smallest |det| over corrected sections {min_det:.3g}")


def _crit_monodromy(seed: int):
    ps0 = PoleSet.of("0")
    series = pairing(circle_loop(ps0, 0), Section.standard(ps0),
                     weight=1, cfg=_TIGHT)
    e1 = abs(series.values[("0",)] - 2j * math.pi)

    ps = PoleSet.of("0,1")
    sec = Section.standard(ps)
    base = 0.5 + 0j
    g0 = loop_around(ps, 0, base)
    g1 = loop_around(ps, 1, base)
    m0 = monodromy_operator(g0, sec, weight=3, cfg=_TIGHT)
    m1 = monodromy_operator(g1, sec, weight=3, cfg=_TIGHT)
    m01 = monodromy_operator(g0 * g1, sec, weight=3, cfg=_TIGHT)
    e2 = float(np.max(np.abs(m01.vector - (m0 @ m1).vector)))
    uni = all(unipotence_check(m) for m in (m0, m1, m01))
    resid = max(m.unipotence_residual() for m in (m0, m1, m01))
    ok = e1 < 1e-9 and e2 < 1e-8 and uni and resid < 1e-8
    return ok, (f"single-loop pairing error {e1:.2e}, composition error "
                f"{e2:.2e}, nilpotent residual {resid:.1e}, "
                f"unitriangular={uni}")


def _letter_pool_omega(ps: PoleSet):
    return [Differential(RationalFunction.const(ps, 1)),
            Differential(RationalFunction.coordinate(ps)),
            Differential(RationalFunction.pole_power(ps, 0, 1)),
            Differential(RationalFunction.pole_power(ps, 1, 1)),
            Differential(RationalFunction.pole_power(ps, 0, 2)),
            Differential(RationalFunction.pole_power(ps, 1, 2))]


def _rand_tensor(rng: random.Random, pool, max_len: int = 3) -> ShuffleTensor:
    coeffs = (QI.of(1), QI.of(-1), QI.of(2),
              QI(Fraction(1, 2)), QI(Fraction(-3, 2)))
    t = ShuffleTensor.zero()
    for _ in range(rng.randint(1, 2)):
        w = tuple(rng.choice(pool) for _ in range(rng.randint(1, max_len)))
        t = t + ShuffleTensor.from_word(w, rng.choice(coeffs))
    if t.is_zero:
        t = ShuffleTensor.from_word((pool[2],))
    return t


def _is_constant(f: RationalFunction) -> bool:
    return f.differentiate().is_zero


def _crit_reduction(seed: int):
    rng = random.Random(seed * 100 + 6)
    ps = PoleSet.of("0,1")
    sec = Section.standard(ps)
    x0 = default_basepoint(ps)
    pool = _letter_pool_omega(ps)
    tensors = [_rand_tensor(rng, pool) for _ in range(100)]
    nfs = [normal_form(t, sec, x0) for t in tensors]

    filtration_ok = True
    for t, nf in zip(tensors, nfs):
        wt = t.weight
        for u, f in nf.terms:
            if len(u) > wt or (len(u) == wt and not _is_constant(f)):
                filtration_ok = False

    zs = [_rand_point(rng, ps) for _ in range(5)]
    chain, marks = plan_chain(complex(x0), zs, ps)
    omega_words = sorted({w for t in tensors for w in t.terms},
                         key=word_sort_key)
    _, caps_o, _ = integrate_words(chain, omega_words, ps, _TIGHT,
                                   capture_after=marks)
    h_words = sorted({u for nf in nfs for u, _ in nf.terms},
                     key=word_sort_key)
    _, caps_h = integrate_h_words(chain, h_words, sec, _TIGHT,
                                  capture_after=marks)
    worst = 0.0
    for t, nf in zip(tensors, nfs):
        for m, z in zip(marks, zs):
            lhs = sum(complex(c) * caps_o[m][w] for w, c in t.terms.items())
            rhs = sum(f.evaluate(z) * caps_h[m][u] for u, f in nf.terms)
            worst = max(worst, abs(lhs - rhs))
    ok = filtration_ok and worst < 1e-8
    return ok, (f"max |integral - normal form| {worst:.2e} over 100 tensors "
                f"at 5 points, filtration bound {'holds' if filtration_ok else 'FAILS'}")


def _crit_kernel(seed: int):
    rng = random.Random(seed * 100 + 7)
    ps = PoleSet.of("0,1")
    sec = Section.standard(ps)
    x0 = default_basepoint(ps)
    dlogs = [Differential(RationalFunction.pole_power(ps, 0, 1)),
             Differential(RationalFunction.pole_power(ps, 1, 1))]
    gens = []
    while len(gens) < 100:
        if rng.random() < 0.5:
            s = ShuffleTensor.unit()
        else:
            s = ShuffleTensor.from_word((rng.choice(dlogs),))
        f = _rand_rf(rng, ps, max_order=1, force_nonconstant=True)
        sp = ShuffleTensor.from_word(
            tuple(rng.choice(dlogs) for _ in range(rng.randint(1, 2))))
        g = d_map(s, f, sp, x0)
        if not g.is_zero:
            gens.append(g)
    exact_zero = all(normal_form(g, sec, x0).is_zero for g in gens)

    z = _rand_point(rng, ps)
    path = plan_path(complex(x0), z, ps)
    words = sorted({w for g in gens for w in g.terms}, key=word_sort_key)
    vals, _, _ = integrate_words(path, words, ps, _TIGHT)
    worst = max(abs(sum(complex(c) * vals[w] for w, c in g.terms.items()))
                for g in gens)

    pool = _letter_pool_omega(ps)
    split_ok = True
    for i in range(10):
        t = _rand_tensor(rng, pool) if i < 7 else gens[i]
        sub, ker = decompose_subker(t, sec, x0)
        if not (sub + ker - t).is_zero:
            split_ok = False
        if not normal_form(ker, sec, x0).is_zero:
            split_ok = False
        if i >= 7 and not sub.is_zero:
            split_ok = False
    ok = exact_zero and worst < 1e-9 and split_ok
    return ok, (f"100 generators exactly in kernel: {exact_zero}, max "
                f"numeric |integral| {worst:.2e}, splits consistent: {split_ok}")


def _crit_coradical(seed: int):
    ok = True
    for length in range(5):
        for w in product(("a", "b"), repeat=length):
            t = ShuffleTensor.from_word(w)
            for n in range(6):
                if coradical_member(t, n) != (length <= n):
                    ok = False
    return ok, ("membership matches word degree for all 31 words, degrees "
                f"0..5: {ok}")


def kz_specialization_check(points) -> bool:
    """Restrict the symmetric pairwise-difference connection to a fiber where
    all coordinates but the last are frozen, and verify exactly that it
    collapses to the tautological one-variable connection.

    The pairwise sum runs over unordered index pairs.  For each pair the
    candidate restricted form is certified against the pair's difference
    function by exact cross multiplication, so a wrong residue or a sign
    slip cannot sneak through.  Repeated points are rejected.
    """
    pts = [QI.of(p) for p in points]
    if len(pts) < 2:
        raise DomainError("need at least two marked points")
    if len({p.sort_key() for p in pts}) != len(pts):
        raise DomainError("marked points must be pairwise distinct")
    ps = PoleSet(tuple(pts))
    n = len(pts)
    moving = n  # index of the free coordinate
    expected = {frozenset({i, moving}): RationalFunction.pole_power(ps, i, 1)
                for i in range(n)}
    restricted: dict = {}
    for j in range(n + 1):
        for k in range(j + 1, n + 1):
            if k < n:
                diff = RationalFunction.const(ps, pts[j] - pts[k])
            else:
                diff = RationalFunction.coordinate(ps) \
                    - RationalFunction.const(ps, pts[j])
            ddiff = diff.differentiate()
            if ddiff.is_zero:
                # both coordinates frozen: the term dies on the fiber
                continue
            omega = RationalFunction.pole_power(ps, j, 1)
            if not (omega * diff - ddiff).is_zero:
                return False
            restricted[frozenset({j, k})] = omega
    return restricted == expected


def _crit_kz(seed: int):
    rng = random.Random(seed * 100 + 9)
    pts2 = []
    while len({p.sort_key() for p in pts2}) < 2:
        pts2 = [_rand_rational(rng) for _ in range(2)]
    pts3 = []
    while len({p.sort_key() for p in pts3}) < 3:
        pts3 = [_rand_rational(rng) for _ in range(3)]
    ok2 = kz_specialization_check(pts2)
    ok3 = kz_specialization_check(pts3)
    return ok2 and ok3, (f"two-point restriction: {ok2}, "
                         f"three-point restriction: {ok3}")


def _crit_local(seed: int):
    ps = PoleSet.of("0,1")
    words = [w for k in (1, 2, 3) for w in product(("0", "1"), repeat=k)]
    worst = 0.0
    worst_mono = 0.0
    logdeg_ok = True
    for center, angles in ((0, (0, 30, 55, 75, 90)),
                           (1, (0, 45, 90, 135, 180))):
        exps = {w: expand_at(w, ps, center, order=24) for w in words}
        for w in words:
            if exps[w].log_degree > len(w):
                logdeg_ok = False
        zs = [center + 0.2 * cmath.exp(1j * math.radians(a)) for a in angles]
        rows = eval_batch(words, zs, ps)
        for row, z in zip(rows, zs):
            for w in words:
                worst = max(worst, abs(exps[w].evaluate(z) - row[w]))
        z0 = zs[1]
        loop = loop_around(ps, center, z0)
        for w in words:
            shifted = exps[w].substitute_log_shift(2j * math.pi).evaluate(z0)
            looped = eval_L(w, z0, ps, loop=loop)
            worst_mono = max(worst_mono, abs(shifted - complex(looped)))
    ok = worst < 1e-6 and worst_mono < 1e-6 and logdeg_ok
    return ok, (f"max grid disagreement {worst:.2e}, max loop-substitution "
                f"disagreement {worst_mono:.2e}, log degree bounded: {logdeg_ok}")


def _crit_connection(seed: int):
    rng = random.Random(seed * 100 + 11)
    ps = PoleSet.of("0,1")
    sec = Section.standard(ps)
    x0 = complex(default_basepoint(ps))
    h = 1e-5
    worst = 0.0
    for _ in range(10):
        u = tuple(rng.choice(ps.labels) for _ in range(rng.randint(1, 3)))
        f = _rand_rf(rng, ps, max_order=1)
        a = ShuffleTensor.from_word(u)
        z0 = _rand_point(rng, ps, clearance=0.45)
        chain, marks = plan_chain(x0, [z0 - h, z0, z0 + h], ps)
        pool = {u, u[:-1]}
        _, caps = integrate_h_words(chain, pool, sec, _TIGHT,
                                    capture_after=marks)
        at_m, at_0, at_p = (caps[m] for m in marks)
        fm, fp = f.evaluate(z0 - h), f.evaluate(z0 + h)
        numeric = (fp * at_p[u] - fm * at_m[u]) / (2 * h)
        symbolic = 0j
        for tensor, form in nabla_sigma(a, f, sec):
            symbolic += form.f.evaluate(z0) * _tensor_value(tensor, at_0)
        worst = max(worst, abs(numeric - symbolic))
    return worst < 1e-6, f"max central-difference mismatch {worst:.2e}"


def _winding(path: Path, p: complex) -> int:
    return round(path.sweep(p) / (2 * math.pi))


def _crit_homotopy(seed: int):
    rng = random.Random(seed * 100 + 12)
    ps = PoleSet.of("0,1")
    pool = [Differential(RationalFunction.pole_power(ps, 0, 1)),
            Differential(RationalFunction.pole_power(ps, 1, 1)),
            Differential(RationalFunction.const(ps, 1))]
    worst = 0.0
    cases = 0
    while cases < 20:
        w = tuple(rng.choice(pool) for _ in range(rng.randint(1, 3)))
        a = _rand_point(rng, ps)
        b = _rand_point(rng, ps)
        p1 = plan_path(a, b, ps)
        direction = (b - a) / abs(b - a)
        mids = [a + (b - a) * t + direction * 1j * rng.uniform(-0.6, 0.6)
                for t in (0.33, 0.66)]
        p2 = Path.polyline([a, mids[0], mids[1], b])
        if p2.min_distance_to(ps.as_complex) < 0.12:
            continue
        closed = p1 + p2.reverse()
        if any(_winding(closed, p) != 0 for p in ps.as_complex):
            continue
        v1 = integrate_words(p1, [w], ps, _TIGHT)[0][w]
        v2 = integrate_words(p2, [w], ps, _TIGHT)[0][w]
        worst = max(worst, abs(v1 - v2))
        cases += 1
    return worst < 1e-8, f"max deformed-path disagreement {worst:.2e} over 20 cases"


CRITERIA = (
    (1, "regularized limits against direct series", _crit_mzv),
    (2, "integrals multiply along the shuffle product", _crit_shuffle),
    (3, "path composition follows the coproduct", _crit_chain),
    (4, "circle periods and corrected-section determinants", _crit_periods),
    (5, "loop pairing, composition, unipotence", _crit_monodromy),
    (6, "normal forms reproduce integrals, filtration bound", _crit_reduction),
    (7, "kernel generators vanish, complement splits", _crit_kernel),
    (8, "coradical filtration equals word degree", _crit_coradical),
    (9, "pairwise connection restricts exactly", _crit_kz),
    (10, "local expansions at the punctures", _crit_local),
    (11, "covariant derivative against central differences", _crit_connection),
    (12, "deformation invariance of the integrals", _crit_homotopy),
)


def run(numbers=None, seed: int = DEFAULT_SEED):
    """Run the requested criteria (all by default); never raises."""
    wanted = set(numbers) if numbers else None
    out = []
    for num, label, fn in CRITERIA:
        if wanted is not None and num not in wanted:
            continue
        try:
            passed, detail = fn(seed)
        except Exception as exc:
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        out.append(CriterionResult(num, label, passed, detail))
    return out
