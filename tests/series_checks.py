"""Checks on series values that only the tests need, and the code that
faster routes replaced, kept as their references."""

import cmath
import math
from fractions import Fraction
from functools import lru_cache
from math import pi

import numpy as np

from curvelog import iterint
from curvelog.curve_genus0 import (_Z, QI0, DeRhamClass, Differential,
                                   PoleSet, RationalFunction, Section, _rf,
                                   _veval, _vmul, _vtotal, d, decompose)
from curvelog.errors import BudgetError, DomainError, InputError, NumericError
from curvelog.hyperlog import (_combine, eval_batch, reference_point,
                               regularize, zero_label)
from curvelog.iterint import (_CHUNK, _HALF_SPAN, _NODES, _RHO_MIN, ArcSeg,
                              IntegratorConfig, LineSeg, Path, _bernstein,
                              _check_distances, _detours, _halves, _plan,
                              _reach, _run, _spectral, _tails_within,
                              _WordSystem, check_prefix_budget,
                              integrate_h_words, label_words, plan_chain,
                              plan_path)
from curvelog.local_expansion import (_CHECK_TOL, _MAX_ORDER, _MAX_RATIO,
                                      _SUM_FLOOR, LogLaurentExpansion,
                                      _letter, _letter_step, _powers,
                                      _reciprocals, _reciprocals_to,
                                      _series_order, _series_sum,
                                      series_values)
from curvelog.reduce import (NormalForm, _as_omega_tensor, _check_basepoint,
                             _fold, _integrate_term, default_basepoint,
                             normal_form)
from curvelog.scalars import QI, _make, accumulate
from curvelog.shuffle_core import (ShuffleTensor, shuffle, shuffle_words,
                                   word_sort_key)


def reference_unipotence_residual(series) -> float:
    """``GroupLikeSeries.unipotence_residual`` as it was before it stayed in
    the series algebra: the largest |entry| of the dense view minus the
    identity, raised to the power weight + 1."""
    n = len(series.vector)
    power = np.linalg.matrix_power(series.matrix - np.eye(n),
                                   series.weight + 1)
    return float(np.max(np.abs(power)))


def grouplike_residual(series) -> float:
    """The largest |S(a) S(b) - sum over w in a ш b of mult S(w)| over the
    word pairs of total length within the weight: 0 when S is group-like."""
    values = series.values
    worst = 0.0
    for a in values:
        for b in values:
            if len(a) + len(b) > series.weight:
                continue
            tot = 0j
            for w, mult in shuffle_words(a, b).items():
                tot += mult * values[w]
            worst = max(worst, abs(tot - values[a] * values[b]))
    return worst


def section_change(section, weight, x0) -> np.ndarray:
    """The exact change from the standard section's series to
    ``section``'s, for loops based at x0: row w holds, at the column of
    each class word u, the coefficient of I(u) in the normal form of
    ``section.word(w)`` through the standard section, evaluated exactly at
    x0.  The normal form is an identity of functions on the universal
    cover based at x0 and its coefficients are rational, so a loop's
    series through ``section`` is this matrix times its standard series;
    nothing here integrates."""
    ps = section.poles
    standard = Section.standard(ps)
    words = label_words(ps, weight)
    index = {w: i for i, w in enumerate(words)}
    change = np.zeros((len(words), len(words)), dtype=complex)
    for i, w in enumerate(words):
        for u, f in normal_form(section.word(w), standard, x0).terms:
            change[i, index[u]] = complex(f.evaluate_exact(x0))
    return change


QI1 = QI.of(1)


def _gaussian(rng):
    """A Gaussian rational with parts of denominator up to 12."""
    return QI(Fraction(rng.randint(-12, 12), rng.randint(1, 12)),
              Fraction(rng.randint(-12, 12), rng.randint(1, 12)))


def _random_function(rng, ps):
    """Gaussian coefficients on a polynomial part of degree up to 3 and on
    principal parts of order up to 4, each term present or zero at random."""
    poly = tuple(_gaussian(rng) if rng.random() < 0.7 else QI(0)
                 for _ in range(rng.randint(0, 4)))
    principal = tuple(((i, k), _gaussian(rng)) for i in range(len(ps))
                      for k in range(1, rng.randint(0, 4) + 1)
                      if rng.random() < 0.6)
    return RationalFunction(ps, poly, principal)


# The exact layer's arithmetic as it stood before it ran on int vectors over
# one common denominator: every coefficient a QI with its own gcd, and every
# intermediate a RationalFunction built from its QI parts.

def _trim(poly):
    lst = list(poly)
    while lst and lst[-1].is_zero:
        lst.pop()
    return tuple(lst)


def _poly_add(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = out[i] + c
    return _trim(out)


def _sorted_sum(items) -> tuple:
    """Principal part items summed by key, zeros dropped, keys sorted."""
    return tuple(sorted(accumulate(items).items()))


def reference_add(f, g):
    return RationalFunction(f.poles, _poly_add(f.poly, g.poly),
                            _sorted_sum(f.principal + g.principal))


def reference_scale(f, c):
    return RationalFunction(f.poles, tuple(v * c for v in f.poly),
                            tuple((k, v * c) for k, v in f.principal))


def reference_differentiate(f):
    return RationalFunction(
        f.poles, tuple(f.poly[j] * j for j in range(1, len(f.poly))),
        tuple(((i, k + 1), c * -k) for (i, k), c in f.principal))


def reference_float_value(f, z):
    """f at a float point, from complex() of each QI coefficient."""
    z = complex(z)
    val = 0j
    for c in reversed(f.poly):
        val = val * z + complex(c)
    for (i, k), c in f.principal:
        dz = z - f.poles.as_complex[i]
        if dz == 0:
            raise DomainError(f"evaluation at the pole {f.poles.label(i)}")
        val += complex(c) / dz ** k
    return val


def reference_mul(f, g):
    """f * g: f is stepped by z once per degree of g's polynomial part and
    by 1/(z - s) once per order at each pole s, and each step enters scaled
    by g's coefficient of that generator power."""
    parts, step = [], f
    for j, c in enumerate(g.poly):
        if j:
            step = reference_times_z(step)
        if not c.is_zero:
            parts.append((step, c))
    pole, order = None, 0
    for (i, k), c in g.principal:
        if i != pole:
            step, pole, order = f, i, 0
        while order < k:
            step, order = reference_times_letter(step, i), order + 1
        parts.append((step, c))
    if len(parts) == 1 and parts[0][1] == QI1:
        return parts[0][0]
    poly = ()
    for step, c in parts:
        poly = _poly_add(poly, tuple(v * c for v in step.poly))
    return RationalFunction(f.poles, poly, _sorted_sum(
        (k, v * c) for step, c in parts for k, v in step.principal))


def reference_times_z(f):
    """f * z: the polynomial part moves one degree up, and
    z a/(z - t)^l = a/(z - t)^(l-1) + t a/(z - t)^l, where the order-0
    term goes into the constant."""
    pts = f.poles.points
    const, items = QI0, []
    for (j, l), a in f.principal:
        if l == 1:
            const = const + a
        else:
            items.append(((j, l - 1), a))
        items.append(((j, l), pts[j] * a))
    return RationalFunction(f.poles, _trim((const,) + f.poly),
                            _sorted_sum(items))


def reference_times_letter(f, i):
    """f / (z - s), s the pole at index i, part by part: synthetic division
    of the polynomial part, a/(z - s)^k one order up, and at each other
    pole t, with d = s - t,
    1/((z - t)^l (z - s)) = d^-l/(z - s) - sum_j d^-(l-j+1)/(z - t)^j."""
    pts = f.poles.points
    s, poly = pts[i], f.poly
    q, acc = [QI0] * (len(poly) - 1), QI0
    for j in range(len(poly) - 1, 0, -1):
        acc = poly[j] + s * acc
        q[j - 1] = acc
    items = [((i, 1), poly[0] + s * acc)] if poly else []
    for (j, l), a in f.principal:
        if j == i:
            items.append(((i, l + 1), a))
            continue
        inv = QI1 / (s - pts[j])
        for m in range(l, 0, -1):
            a = a * inv
            items.append(((j, m), -a))
        items.append(((i, 1), a))
    return RationalFunction(f.poles, tuple(q), _sorted_sum(items))


def reference_antiderivative(f):
    """Termwise antiderivative with zero integration constant, of a
    function without simple poles."""
    poly = (QI0,) + tuple(c / (j + 1) for j, c in enumerate(f.poly))
    return RationalFunction(
        f.poles, poly if f.poly else (),
        tuple(((i, k - 1), c / (1 - k)) for (i, k), c in f.principal))


def reference_evaluate_exact(f, z):
    z = QI.of(z)
    val = QI0
    for c in reversed(f.poly):
        val = val * z + c
    for (i, k), c in f.principal:
        val = val + c / math.prod((z - f.poles.points[i],) * k, start=QI1)
    return val


def reference_decompose(w, section):
    """``decompose``: the residues give the class, and f is the
    antiderivative of the rest minus c_s (g_s - g_s(0)) for each s."""
    ps = w.poles
    cs, higher = [QI0] * len(ps), []
    for key, c in w.f.principal:
        if key[1] == 1:
            cs[key[0]] = c
        else:
            higher.append((key, c))
    f = reference_antiderivative(
        RationalFunction(ps, w.f.poly, tuple(higher)))
    if not section.is_standard:
        for i, c in enumerate(cs):
            g = section.corrections[i]
            if not c.is_zero and not g.is_zero:
                f = f - (g - g.constant_term).scale(c)
    return DeRhamClass(ps, tuple(cs)), f


def reference_integrate_term(u, f, section, x0, out):
    """Append the normal form of the integral from x0 of I(u) f dz to out,
    on RationalFunctions: split f dz as sum c_i sigma_i + dg, and by parts
    I(u) dg integrates to I(u) g minus the integral of I(u') g sigma_last,
    where u = u' last; the empty word integrates dg to g - g(x0)."""
    while not f.is_zero:
        h, g = decompose(Differential(f), section)
        for i, c in h.nonzero():
            out.append((u + (section.poles.label(i),),
                        RationalFunction.const(section.poles, c)))
        if g.is_zero:
            return
        if not u:
            out.append(((), g - g.evaluate_exact(x0)))
            return
        out.append((u, g))
        f = -(g * section.form(u[-1]).f)
        u = u[:-1]


def reference_normal_form(t, section, x0) -> NormalForm:
    """``reduce.normal_form`` as it was before words shared their tails:
    each word is folded on its own, from its coefficient on the empty class
    word, and every letter replaces each running term f I(u) by the normal
    form of the integral of f I(u) omega."""
    ps = section.poles
    x0 = _check_basepoint(ps, x0)
    out = []
    for word, coeff in _as_omega_tensor(t).terms.items():
        running = {(): RationalFunction.const(ps, coeff)}
        for letter in word:
            terms = []
            for u, f in running.items():
                reference_integrate_term(u, f * letter.f, section, x0, terms)
            running = accumulate(terms)
        out.extend(running.items())
    return NormalForm(ps, section, x0, tuple(accumulate(out).items()))


def reference_decompose_subker(t, section, x0=None):
    """``reduce.decompose_subker`` as it was before it folded its input
    once: the representative is rebuilt from the normal form, top weight
    first, and the full normal form of each piece is folded on its own and
    subtracted."""
    ps = section.poles
    x0 = default_basepoint(ps) if x0 is None else _check_basepoint(ps, x0)
    t = _as_omega_tensor(t)
    sub_terms: list = []
    acc = dict(normal_form(t, section, x0).terms)
    while acc:
        u = max(acc, key=word_sort_key)
        f = acc[u]
        c = f.constant_term
        fp = f - RationalFunction.const(ps, c)
        if not u and not fp.is_zero:
            # a lone trailing-exact word integrates to fp - fp(x0), so the
            # basepoint value moves into the constant piece
            c = c + fp.evaluate_exact(x0)
        pieces = []
        if not c.is_zero:
            pieces.append((section.word(u), c))
        if not fp.is_zero:
            pieces.append(
                (section.word(u) + (Differential(fp.differentiate()),), 1))
        # subtracting the full normal form of each piece leaves at most a
        # constant residue at u (swept on the next visit) and corrections
        # that are lower in the (weight, nonconstant coefficient) order
        for piece in pieces:
            sub_terms.append(piece)
            accumulate(((w, -g) for w, g in normal_form(
                ShuffleTensor((piece,)), section, x0).terms), acc)
    sub = ShuffleTensor(sub_terms)
    ker = t - sub
    return sub, ker


def reference_section_vectors(section) -> tuple:
    """``curve_genus0._section_vectors`` as it was before the standard
    section's vectors came in closed form: every section through
    RationalFunction arithmetic, each correction less its constant term
    and each form as ``Section.forms`` builds it."""
    corr = [None if h.is_zero else h.vec
            for h in (g - g.constant_term for g in section.corrections)]
    return corr if any(corr) else None, {
        lab: w.f.vec for lab, w in zip(section.poles.labels, section.forms)}


def reference_kernel_member(t, section, x0=None) -> bool:
    """``reduce.kernel_member`` as it was before it read the fold's root:
    the whole normal form built, then asked whether it vanishes."""
    return normal_form(t, section, x0).is_zero


def reference_subker_sweep(t, section, x0=None):
    """``reduce.decompose_subker`` as it was before it kept each word's
    sort key: the same sweep over the one fold, with the top word taken
    by max(acc, key=word_sort_key) afresh on every pass."""
    t = _as_omega_tensor(t)
    acc, fold = _fold(t, section, x0)
    ps, x0, pts, _, forms = fold
    sub_terms: list = []
    while acc:
        u = max(acc, key=word_sort_key)
        D, P, Q = _vtotal(acc.pop(u))
        c = _make(*(P[0] if P else _Z), D)
        fp = (D, P[1:] and [_Z, *P[1:]], Q) if P[1:] or Q else None
        if fp and u:
            _integrate_term(u[:-1], _vmul(fp, forms[u[-1]], pts), acc, fold)
        elif fp:
            c = c + _make(*_veval(fp, x0, ps))
        sub_terms.append((section.word(u), c))
        if fp:
            sub_terms.append((section.word(u) + (d(_rf(ps, fp)),), 1))
    sub = ShuffleTensor(sub_terms)
    return sub, t - sub


def reassemble(reg, ps) -> ShuffleTensor:
    """The word a RegularizedWord splits: the sum over its parts of the
    part shuffled against the matching shuffle power of the zero letter."""
    x = ShuffleTensor.from_word((zero_label(ps),))
    total = ShuffleTensor.zero()
    for k, t in reg.parts:
        power = ShuffleTensor.unit()
        for _ in range(k):
            power = shuffle(power, x)
        total = total + shuffle(t, power)
    return total


def reference_plan_path(a, b, ps):
    """``iterint.plan_path`` with the detour test spelled out: each
    candidate detour reads its own distance, where ``plan_path`` reads
    them all from ``_detours``."""
    a, b = complex(a), complex(b)
    if a == b:
        return Path((), a)
    guard = ps.guard
    u = (b - a) / abs(b - a)
    seg = LineSeg(a, b)
    detours = []
    m = ps.min_pairwise_distance
    for p in ps.as_complex:
        rho = 0.3 * m if math.isfinite(m) else 0.3 * max(1.0, abs(a - p))
        rho = min(rho, 0.8 * abs(a - p), 0.8 * abs(b - p))
        if rho <= 2 * guard:
            continue
        along = ((p - a) * u.conjugate()).real
        if not (1e-12 < along < abs(b - a) - 1e-12):
            continue
        if seg.min_distance(p) >= rho:
            continue
        detours.append((along, p, rho))
    detours.sort(key=lambda item: item[0])
    segs = []
    cur = a
    for _, p, rho in detours:
        q1 = p - rho * u
        q2 = p + rho * u
        if abs(q1 - cur) > 1e-14:
            segs.append(LineSeg(cur, q1))
        th1 = cmath.phase(q1 - p)
        segs.append(ArcSeg(p, rho, th1, th1 - math.pi))
        cur = q2
    if abs(b - cur) > 1e-14:
        segs.append(LineSeg(cur, b))
    path = Path(tuple(segs), a)
    path.check_clearance(ps)
    return path


def reference_start(z, ps):
    """``hyperlog._start`` as it was before a leg without a detour returned
    at once and ``plan_path`` checked a straight leg's clearance from its
    own distances: every leg into the disk is closed by its chord and its
    sweep about each puncture is summed."""
    z1 = reference_point(ps)
    leg = plan_path(z1, z, ps)
    r = 2 * z1.real
    if abs(z) < r:
        back = LineSeg(z, z1)
        if not any(round((leg.sweep(p) + back.sweep(p)) / (2 * math.pi))
                   for p in ps.as_complex if p != 0):
            turns = round((leg.sweep(0j) - cmath.phase(z)) / (2 * math.pi))
            return (Path.line(z * min(1.0, _MAX_RATIO * r / abs(z)), z),
                    turns)
    return leg, 0


def reference_leg_start(z, ps):
    """``hyperlog._start`` as it was before a point in the origin's disk
    took its turns from the planner's detour test: the leg from z1 is
    planned for every first point, a leg without a detour turns about
    nothing, and a detoured one has its sweeps summed."""
    z1 = reference_point(ps)
    leg = plan_path(z1, z, ps)
    r = 2 * z1.real
    if not abs(z) < r:
        return leg, 0
    turns = 0
    if len(leg.segments) > 1:
        if any(isinstance(seg, ArcSeg) and seg.center != 0
               for seg in leg.segments):
            back = LineSeg(z, z1)
            if any(round((leg.sweep(p) + back.sweep(p)) / (2 * math.pi))
                   for p in ps.as_complex if p != 0):
                return leg, 0
        turns = round((leg.sweep(0j) - cmath.phase(z)) / (2 * math.pi))
    return Path.line(z * min(1.0, _MAX_RATIO * r / abs(z)), z), turns


def reference_chord_turns(z1: complex, z: complex, ps: PoleSet,
                          slack: float):
    """``hyperlog._chord_turns``, which ``_start`` called before it took a
    lone half circle's turns from z's half-plane, kept verbatim.

    The turns about 0 of the planned leg from z1 to a point z in the
    origin's disk, read off the planner's detour test (``_detours``)
    without building the leg, or None when that test cannot place them.

    Without a detour the leg is its chord, whose distances are checked as
    ``plan_path`` checks them, and it turns about nothing.  A lone half
    circle about 0 of radius rho runs from q1 = -rho u to q2 = rho u, for
    the chord's direction u, and the leg's sweep about 0 is that of its
    three pieces, summed as ``Path.sweep`` sums them.  Its clearance then
    follows from the geometry once rho is more than the slack.  The half
    circle keeps rho from 0, and each line piece 0.6 rho: its far end lies
    at least rho / 0.8 from 0, so it either projects past the half circle,
    or lies more than 0.75 rho off the line through 0 along u, and then the
    piece's line passes at least rho 0.75 / 1.25 from 0.  Each piece is at
    least a fifth of its far end's modulus long, so the planner keeps it.
    Any other detour (one about another puncture beside the rim) is None."""
    u, detours, dists = _detours(z1, z, ps)
    if not detours:
        _check_distances(dists, ps)
        return 0
    _, p, rho = detours[0]
    if not (len(detours) == 1 and p == 0 and rho > slack):
        return None
    q1, q2 = p - rho * u, p + rho * u  # as plan_path, signed zeros too
    th1 = cmath.phase(q1 - p)
    sweep = (cmath.phase(q1 / z1) + ((th1 - pi) - th1)
             + cmath.phase(z / q2))
    return round((sweep - cmath.phase(z)) / (2 * pi))


def reference_start_values(words, ps, base, turns) -> dict:
    """The values a chain starts from as ``hyperlog._evaluate`` built them
    before the zero letter started at its log: the series values at base
    of the words' admissible parts and of the zero letter, the zero letter
    moved by turns."""
    zlab = zero_label(ps)
    admissible = {u for w in words for _, t in regularize(w, ps).parts
                  for u in t.terms}
    start = series_values(admissible | {(zlab,)}, ps, base)
    start[(zlab,)] += 2j * math.pi * turns
    return start


def reference_evaluate(words, pts, ps, cfg=None, tail=None):
    """``hyperlog._evaluate`` as it was before a chain could start at its
    first point: every chain starts at the reference point, from the
    series values there, and the planned leg carries them to the first
    point however close it lies to the origin."""
    zlab = zero_label(ps)
    regs = {w: regularize(w, ps) for w in set(words)}
    admissible = {u for reg in regs.values() for _, t in reg.parts
                  for u in t.terms}
    z1 = reference_point(ps)
    path, marks = plan_chain(z1, pts, ps)
    if tail is not None:
        path = path + tail
        marks[-1] = len(path.segments) - 1
    start = series_values(admissible | {(zlab,)}, ps, z1)
    _, caps = integrate_h_words(
        path, list(start), Section.standard(ps), cfg,
        capture_after=[m for m in marks if m >= 0], start=start)
    rows = [start if m < 0 else caps[m] for m in marks]
    return [{w: _combine(regs[w], vals, vals[(zlab,)]) for w in words}
            for vals in rows]


def reference_mzv(word) -> complex:
    """``hyperlog.mzv`` as it was before it read the series at one: the
    integral of v from 1/2 to 1 is (-1)^|v| times the value at 1/2 of
    tau(v), v reversed with the letters 0 and 1 swapped, because z -> 1 - z
    exchanges the two letters and reverses the path, so every factor is a
    series value at the origin."""
    word = tuple(word)
    ps = PoleSet.of("0,1")
    tau = tuple("1" if lab == "0" else "0" for lab in reversed(word))
    vals = series_values([word, tau], ps, reference_point(ps))
    n = len(word)
    return sum((vals[word[:k]] * (-1) ** (n - k) * vals[tau[:n - k]]
                for k in range(n + 1)), 0j)


def reference_integrate(path, words, poles, form_of, cfg, capture_after=(),
                        trace=False, start=None):
    """``iterint._integrate`` without its shortcut for an empty path asked
    for no word: every call builds the system, runs it from start (the
    unit when None) and unpacks every vector into a dict."""
    cfg = cfg or IntegratorConfig()
    path.check_clearance(poles)
    system = _WordSystem(words, form_of)
    y0 = (np.eye(1, system.n, dtype=complex)[0] if start is None else
          np.array([start[w] for w in system.words], dtype=complex))
    y, captured, rows = _run(system, y0, path, cfg, poles.as_complex,
                             capture_after, trace)

    def unpack(vec):
        return {w: vec[i] for w, i in system.index.items()}

    caps = {si: unpack(vec) for si, vec in captured.items()}
    return unpack(y), caps, [(t, unpack(vec)) for t, vec in rows]


def reference_prefix_closure(words) -> list:
    """``iterint._prefix_closure`` as it was before each word stopped at its
    first prefix already in the closure: every word sliced into all its
    prefixes, so the prefixes of an n-letter word, passed as words, cost
    n^2 / 2 slices."""
    closure = dict.fromkeys(w[:k] for w in check_prefix_budget(words)
                            for k in range(len(w) + 1))
    return sorted(closure, key=len) or [()]


@lru_cache(maxsize=32)
def _reference_letter_coeffs(ps, lab, center, size, scale):
    """After size zeros, the coefficients over u^m of 1/(u - e), for m
    below size - 1, where u = x / scale and e = (pole - center) / scale;
    None for the center's own letter, which is 1/x itself.  This vector is
    the buffer of every letter matrix up to order size - 1."""
    p = ps.points[ps.index(lab)]
    if p == center:
        return None
    if complex(center - p) == 0:
        raise DomainError("a pole and the center coincide as floats")
    # 1/(u - e) is minus the sum of w^(m + 1) u^m for w = 1/e
    out = np.zeros(2 * size - 1, dtype=complex)
    out[size:] = -_powers(scale / complex(p - center), size)[1:]
    out.setflags(write=False)
    return out


def reference_letter_matrix(ps, lab, center, order, scale):
    """``local_expansion._letter_series`` as it was while a letter was a
    matrix, before ``_letter`` kept only its ratio w's tables.
    Multiplication by the letter dz/(z - pole), which is du/(u - e) in
    u = x / scale for e = (pole - center) / scale, as the matrix taking
    coefficients over u^j to coefficients over u^(i - 1), for i and j in
    0..order: entry (j, i) is the coefficient of u^(i - 1 - j) in
    1/(u - e), which is -w^(i - j) for w = 1/e above the diagonal and zero
    on and below it.  It is a read-only Toeplitz view of the letter's
    cached coefficients, which serve every order up to the next power of
    two.  The letter at the center is 1/x itself, whose matrix is the
    identity: None then."""
    n = order + 1
    size = 1 << order.bit_length()
    coeffs = _reference_letter_coeffs(ps, lab, center, size, scale)
    if coeffs is None:
        return None
    # entry (j, i) is coeffs[size - 1 - j + i]
    step = coeffs.itemsize
    return np.ndarray((n, n), complex, coeffs, (size - 1) * step,
                      (-step, step))


@lru_cache(maxsize=32)
def _reference_letter_sums(w, size):
    """What a letter step with w = 1/e needs beside the letter's row 0,
    for orders below size: the length k of a block of its running sum,
    w^-j for j below k, and (0, -w, -w^2/2, ..., -w^i/i, ...), the row
    times the reciprocals.  k is size unless |w|^k would fall below
    _SUM_FLOOR, so that no w^-j passes 1 / _SUM_FLOOR."""
    a = abs(w)
    if a ** size >= _SUM_FLOOR:
        k = size
    else:  # a w that underflows to zero has no terms to sum
        k = max(1, int(math.log(_SUM_FLOOR) / math.log(a))) if a else 1
    down = _powers(1 / w, k) if k > 1 else np.ones(1, dtype=complex)
    fold = -_powers(w, size) * _reciprocals_to(size)[:size]
    down.setflags(write=False)
    fold.setflags(write=False)
    return k, down, fold


def reference_running_sum_product(rows, letter):
    """``local_expansion._letter_product`` as it was while it read w off
    the letter's matrix (reference_letter_matrix): rows @ letter without
    the n x n product, column i -w^i times the sum over j < i of
    rows[:, j] w^-j, restarted every k columns of _reference_letter_sums
    from the column before."""
    m, n = rows.shape
    row = letter[0]
    k, down, _ = _reference_letter_sums(-row[1], 1 << (n - 1).bit_length())
    prod = np.empty((m, n), dtype=complex)
    prod[:, 0] = 0
    for b in range(0, n - 1, k):
        e = min(b + k, n - 1)
        acc = rows[:, b:e] * down[:e - b]
        if b:
            acc[:, 0] -= prod[:, b]
        np.add.accumulate(acc, axis=1, out=acc)
        np.multiply(acc, row[1:e - b + 1], out=prod[:, b + 1:e + 1])
    return prod


def reference_running_sum_step(rows, letter, inv=None):
    """``local_expansion._letter_step`` as it was while a letter was its
    matrix (reference_letter_matrix, or None for the center's own 1/x),
    whose row 0 gave w and whose running sums were cached apart by w: the
    product is reference_running_sum_product, and one row in one block is
    multiplied once by the cached -w^i / i."""
    m, n = rows.shape
    if letter is None:
        prod = rows
    else:
        k, down, fold = _reference_letter_sums(-letter[0, 1],
                                               1 << (n - 1).bit_length())
        if m == 1 and k >= n - 1:
            acc = rows[0, :-1] * down[:n - 1]
            np.add.accumulate(acc, out=acc)
            out = np.empty((1, n), dtype=complex)
            out[0, 0] = 0
            np.multiply(acc, fold[1:n], out=out[0, 1:])
            return out
        prod = reference_running_sum_product(rows, letter)
    if inv is None:
        inv = _reciprocals(n - 1)
    if m == 1 and not prod[0, 0]:
        # one row that gains no log: x^(i-1) integrates to x^i / i
        out = prod * inv
        out[0, 0] = 0
        return out
    inv = inv[1:]
    top = prod[m - 1, 0] / m
    out = np.zeros((m + 1 if top else m, n), dtype=complex)
    if top:
        out[m, 0] = top
    # the top row has no row above it to subtract
    acc = np.multiply(prod[m - 1, 1:], inv, out=out[m - 1, 1:])
    for k in range(m - 2, -1, -1):
        out[k + 1, 0] = prod[k, 0] / (k + 1)
        acc = out[k, 1:] = (prod[k, 1:] - (k + 1) * acc) * inv
    return out


def reference_letter_step(rows, letter):
    """``local_expansion._letter_step`` as it was before the termwise
    integration became one by-parts pass: every letter, the center's own
    1/x too, is a matrix product, and each log power's integral is summed
    in closed form, x^(i-1) log^k to x^i times the sum over m of
    (-1)^m k!/(k-m)! log^(k-m) / i^(m+1)."""
    prod = rows @ letter
    inv = 1.0 / np.arange(1, rows.shape[1])
    out = np.zeros((len(rows) + 1, rows.shape[1]), dtype=complex)
    for k, p in enumerate(prod):
        out[k + 1, 0] = p[0] / (k + 1)
        term = p[1:] * inv
        for m in range(k + 1):
            out[k - m, 1:] += term
            term = term * (-(k - m) * inv)
    if not out[-1].any():
        out = out[:-1]
    return out


def letter_product_bound(rows, letter):
    """An elementwise bound on the distance from a letter's running-sum
    product (``local_expansion._letter_product``) to rows @ letter, for
    the letter's matrix (reference_letter_matrix).  Each
    column is a sum of at most n terms, each a row entry times a power of w
    that is about 2 log2(n) roundings from exact on either side, so the two
    lie within 4 n eps (|rows| @ |letter|) of each other, plus n times the
    smallest subnormal per unit of sum |rows| where a term underflows
    (Higham, Accuracy and Stability of Numerical Algorithms, ch. 2 and 4)."""
    n = rows.shape[1]
    # |letter| is Toeplitz too: entry (j, i) is |letter[0, i - j]|
    absprod = np.array([np.convolve(np.abs(r), np.abs(letter[0]))[:n]
                        for r in rows])
    return 4 * n * (np.finfo(float).eps / 2 * absprod
                    + np.finfo(float).smallest_subnormal
                    * np.abs(rows).sum(axis=1)[:, None])


def letter_step_bound(rows, letter):
    """An elementwise bound on the distance from a letter step to
    reference_letter_step, in its shape before it drops a zero top row:
    letter_product_bound carried through the closed-form integration in
    absolute values, whose own roundings, a few per log power, fit in the
    same margin."""
    n = rows.shape[1]
    inv = 1.0 / np.arange(1, n)
    out = np.zeros((len(rows) + 1, n))
    for k, p in enumerate(letter_product_bound(rows, letter)):
        out[k + 1, 0] = p[0] / (k + 1)
        term = p[1:] * inv
        for m in range(k + 1):
            out[k - m, 1:] += term
            term = term * ((k - m) * inv)
    return out


def reference_expand_at(word, poles, center, order=24, cfg=None):
    """``local_expansion.expand_at`` as it was while it stepped in x to the
    order asked for: each constant matched on that truncated series, so it
    carried the order's truncation error at the reference point, and the
    control point admitted a hand-fitted (letters + 1)^2 multiple of the
    truncation remainder."""
    ps = PoleSet.of(poles)
    word = tuple(word)
    for lab in word:
        ps.index(lab)
    if order < 1:
        raise DomainError("expansion order must be at least one")
    if order > _MAX_ORDER:
        raise BudgetError(f"expansion order {order} exceeds the cap of "
                          f"{_MAX_ORDER} on the letter product")
    c_exact = QI.of(center)
    try:
        c_num = complex(c_exact)
    except OverflowError as exc:
        raise InputError(f"center {center!r} overflows a float") from exc
    zero_label(ps)  # regularization needs the origin among the poles
    dists = [abs(c_num - p) for p in ps.as_complex if abs(c_num - p) > 0]
    radius = 0.5 * min(dists) if dists else 1.0

    at_origin = c_exact == QI.of(0)
    prefixes = [word[:k] for k in range(1, len(word) + 1)]
    x_ref = radius / 2.0
    if not at_origin and prefixes:
        z_ref = c_num + x_ref
        z_chk = c_num + 0.45 * radius * cmath.exp(0.25j * math.pi)
        vals_ref, vals_chk = eval_batch(prefixes, [z_ref, z_chk], ps, cfg)

    rows = np.eye(1, order + 1, dtype=complex)
    size = 1 << order.bit_length()
    for n, lab in enumerate(word):
        rows = _letter_step(rows, _letter(ps, lab, c_exact, size, 1.0))
        if not at_origin:
            rows[0, 0] += vals_ref[word[:n + 1]] - _series_sum(
                rows, x_ref, cmath.log(x_ref))
    exp = LogLaurentExpansion(word, c_num, radius, order, rows)
    if not at_origin and word:
        got = exp.evaluate(z_chk)
        want = vals_chk[word]
        rho = min((d for d in (abs(c_num - ps.as_complex[ps.index(lab)])
                               for lab in word) if d > 0), default=math.inf)
        rem = (len(word) + 1) ** 2 * sum(
            u ** (order + 1) / (1 - u)
            for u in (x_ref / rho, abs(z_chk - c_num) / rho))
        if abs(got - want) > max(_CHECK_TOL, rem) * max(1.0, abs(want)):
            raise NumericError(
                "local expansion disagrees with the continued function at a "
                f"control point (difference {abs(got - want):.3g})")
    return exp


def reference_series_values(words, ps, x, center=0) -> dict:
    """``local_expansion.series_values`` as it was before every prefix was
    summed in one pass: a prefix of more than one row is summed as it is
    stepped, its own product with the powers and then Horner's rule in the
    log, and the one-row prefixes hold a place in the result until one
    product after the steps sums them."""
    c = QI.of(center)
    c_num = complex(c)
    r_c = min((abs(p - c_num) for p in ps.as_complex if p != c_num),
              default=math.inf)
    order = _series_order(abs(x) / r_c)
    scale = r_c if r_c < math.inf else 1.0
    size = 1 << order.bit_length()
    powers = np.ones(order + 1, dtype=complex)
    powers[1:] = np.full(order, complex(x) / scale).cumprod()
    powers = powers[::-1]
    lx = cmath.log(x)
    letters = {}
    series = {}
    vals = {(): 1.0 + 0j}
    single = []
    for w in check_prefix_budget(words):
        for k in range(1, len(w) + 1):
            prefix = w[:k]
            if prefix in series:
                rows = series[prefix]
                continue
            lab = w[k - 1]
            if lab not in letters:
                letters[lab] = _letter(ps, lab, c, size, scale)
            letter = letters[lab]
            if k == 1:
                # the letter's row (0, -w, -w^2, ...) is the unit row times
                # the letter's matrix
                rows = (np.eye(1, order + 1, dtype=complex) if letter is None
                        else letter[2][None, :order + 1])
                letter = None
            rows = series[prefix] = _letter_step(rows, letter)
            vals[prefix] = None
            if len(rows) == 1:
                single.append(prefix)
                continue
            total = 0j
            for v in (rows[:, ::-1] @ powers)[::-1].tolist():
                total = total * lx + v
            vals[prefix] = total
    if single:
        zero = 0j * lx
        rows = np.concatenate([series[p] for p in single])
        for p, v in zip(single, (rows[:, ::-1] @ powers).tolist()):
            vals[p] = zero + v
    return vals


def reference_antipode_table(letters, weight):
    """The antipode's signed gather as ``iterint.antipode_table`` built it
    before it became two tables of ``word_cuts``: rev looks up each basis
    word's reversal in a dict of the basis, and sign is (-1)^|w|."""
    basis = iterint.word_cuts(letters, weight)[0]
    index = {w: i for i, w in enumerate(basis)}
    rev = np.array([index[w[::-1]] for w in basis], dtype=np.intp)
    sign = np.array([(-1.0) ** len(w) for w in basis])
    return sign, rev


def reference_plan(seg, punctures, budget: int):
    """``iterint._plan`` as it was before it cut each piece in closed form:
    the pieces (ta, tb) of a segment in order, halved until every puncture
    keeps a Bernstein parameter of at least _RHO_MIN from each (a NaN one
    keeps none), and the number of pieces examined; NumericError once that
    number passes the budget."""
    plan, todo, examined = [], [(0.0, 1.0)], 0
    while todo:
        ta, tb = todo.pop()
        examined += 1
        if examined > budget:
            raise NumericError("integration piece budget exhausted")
        piece = seg.piece(ta, tb)
        if all(piece.bernstein(p) >= _RHO_MIN for p in punctures):
            plan.append((ta, tb))
        else:
            todo += _halves(ta, tb)
    return plan, examined


def reference_bernstein(seg, p) -> float:
    """``bernstein`` of a line or an arc as it was before the arc's share
    moved into ``iterint._arc_bernstein``, which the planner calls too:
    the image of p nearest the middle angle bounds the arc."""
    if isinstance(seg, LineSeg):
        return seg.bernstein(p)
    if p == seg.center:
        return math.inf
    q = seg.image(p)
    mid = 0.5 * seg.theta0 + 0.5 * seg.theta1
    arg = q.real + 2 * math.pi * round((mid - q.real) / (2 * math.pi))
    return _bernstein(seg.theta0, seg.theta1, complex(arg, q.imag))


def reference_sweep_plan(seg, punctures, budget: int) -> list:
    """``iterint._plan`` as it was before a piece was confirmed from its
    segment's own data: the same sweep of closed-form pieces, each
    confirmed by building ``seg.piece(ta, tb)`` and asking for its
    Bernstein parameter (``reference_bernstein``) at every puncture,
    which re-derives an arc's images."""
    def keeps(ta, tb) -> bool:
        piece = seg.piece(ta, tb)
        return all(reference_bernstein(piece, p) >= _RHO_MIN
                   for p in punctures)

    if budget < 1:
        raise NumericError("integration piece budget exhausted")
    if keeps(0.0, 1.0):  # a point interval too, which has no direction
        return [(0.0, 1.0)]
    if isinstance(seg, ArcSeg):
        origin, span = seg.theta0, seg.theta1 - seg.theta0
        marks, turn = [seg.image(p) for p in punctures
                       if p != seg.center], 2 * math.pi
        # a piece longer than a turn covers the real part of an image q of
        # each puncture, where |q - a| + |q - b| <= L + 2 |Im q| caps it at
        # 2 |Im q| / (sqrt(5) - 1): an arc no budget covers is refused here
        cap = min((max(turn, 2 * abs(q.imag) / (math.sqrt(5) - 1))
                   for q in marks), default=math.inf)
        if abs(span) > budget * cap:
            raise NumericError("integration piece budget exhausted")
    else:
        origin, span = seg.start, seg.end - seg.start
        marks, turn = punctures, 0.0
    size = abs(span)
    unit = span.conjugate() / size
    plan, ta = [], 0.0
    while ta < 1.0:
        if len(plan) == budget:
            raise NumericError("integration piece budget exhausted")
        a, reach = origin + ta * span, math.inf
        for q in marks:
            q = (q - a) * unit
            if turn:  # the images q + turn k: take those about |Im q| / 2
                k = math.floor((0.5 * abs(q.imag) - q.real) / turn)
                q += turn * k
                reach = min(reach, _reach(q), _reach(q + turn))
            else:
                reach = min(reach, _reach(q))
        tb = min(1.0, ta + reach / size)
        hair = 2.0 ** -40
        while not (ta < tb and keeps(ta, tb)):
            if not ta < tb:
                raise NumericError("integration piece underflow: the "
                                   "tolerance is below rounding error")
            tb = ta + (tb - ta) * (1.0 - hair)
            hair *= 2.0
        plan.append((ta, tb))
        ta = tb
    return plan


def reference_level_run(system, y, path, cfg, punctures,
                        capture_after=(), trace=False):
    """``iterint._run`` as it was before each run set up its level views
    once: every piece slices and reshapes each level's parent rows,
    output block and endpoint columns, and the top level's product, and
    its pieces come from ``reference_sweep_plan``.  Returns _run's
    (endpoint, captured, trace rows)."""
    _, ST, tail, reads, ends = _spectral()
    s = ends[1]  # the nodes' parameters on [0, 1]
    n, m = system.n, len(system.evaluators)
    inner = system.levels
    top = None
    if inner and not trace:
        *inner, top = inner
    kept = top[0] if top else n  # the rows whose node values are kept
    Y = np.empty((kept, _NODES), dtype=complex)
    Y[0] = y[0]
    GB = np.empty((_CHUNK + 1, m, _NODES), dtype=complex)  # last: a half
    M = np.empty((_NODES, m * _NODES), dtype=complex)
    W = np.empty((max((phi - plo for _, _, plo, phi, pick in inner
                       if pick is not None), default=0), m * _NODES),
                 dtype=complex)
    K = np.empty((_NODES, m, 3), dtype=complex)
    # the endpoint values before and after the piece, swapped on success
    y, end = y.copy(), np.empty(n, dtype=complex)
    T = np.empty((n, 2), dtype=complex)
    tail_sum = tail.sum(axis=0)  # a constant's tail: zero but for rounding

    def letters(seg, spans, out):
        """Each letter's form times half the velocity at the nodes of the
        pieces spans[i] = (ta, tb) of seg, piece i's into out[i]."""
        z, dz = seg.nodes(spans @ ends, (spans @ _HALF_SPAN)[:, None])
        for j, ev in enumerate(system.evaluators):
            out[:, j] = ev(z)
        out *= dz[:, None]

    def solve(G) -> bool:
        """Endpoint values of every word on the piece with letters G into
        end, and node values of every kept row into Y, level by level; True
        when every row's Chebyshev tail is within the tolerance
        (``_tails_within``)."""
        np.multiply(G.T[:, :, None], ST[:, None],
                    out=M.reshape(_NODES, m, _NODES))
        for lo, hi, plo, phi, pick in inner:
            if pick is None:
                np.matmul(Y[plo:phi], M,
                          out=Y[lo:hi].reshape(phi - plo, m * _NODES))
            else:
                np.matmul(Y[plo:phi], M, out=W[:phi - plo])
                np.take(W.reshape(-1, _NODES), pick, axis=0, out=Y[lo:hi],
                        mode="clip")
            Y[lo:hi] += y[lo:hi, None]
        end[:kept] = Y[:, -1]
        np.matmul(Y, tail, out=T[:kept])
        if top:
            lo, hi, plo, phi, pick = top
            np.multiply(G.T[:, :, None], reads[:, None], out=K)
            R = (Y[plo:phi] @ K.reshape(_NODES, 3 * m)).reshape(-1, 3)
            R = R if pick is None else R[pick]
            np.add(R[:, 0], y[lo:hi], out=end[lo:hi])
            np.add(R[:, 1:], y[lo:hi, None] * tail_sum, out=T[lo:hi])
        return _tails_within(T, y, end, cfg)

    captured = {}
    rows = []
    capture_after = set(capture_after)
    pieces = 0
    for si, seg in enumerate(path.segments):
        plan = reference_sweep_plan(seg, punctures,
                                    iterint._MAX_PIECES - pieces)
        pieces += len(plan)
        for c in range(0, len(plan), _CHUNK):
            spans = plan[c:c + _CHUNK]
            letters(seg, np.array(spans), GB[:len(spans)])
            for span, G in zip(spans, GB):
                todo = [(*span, G)]
                while todo:
                    ta, tb, G = todo.pop()
                    if G is None:
                        letters(seg, np.array([(ta, tb)]), GB[_CHUNK:])
                        G = GB[_CHUNK]
                    if not solve(G):
                        pieces += 2
                        if pieces > iterint._MAX_PIECES:
                            raise NumericError(
                                "integration piece budget exhausted")
                        todo += [(*half, None) for half in _halves(ta, tb)]
                        continue
                    y, end = end, y
                    if trace:
                        rows.extend((si + ta + (tb - ta) * s[k],
                                     Y[:, k].copy())
                                    for k in range(1, _NODES))
        if si in capture_after:
            captured[si] = y.copy()
    return y, captured, rows


def reference_tails_within(T, y, end, cfg) -> bool:
    """``iterint._tails_within`` as it was before tails all within atol
    passed at once: every row's tail against atol + rtol max(|y|, |end|)."""
    scale = cfg.atol + cfg.rtol * np.maximum(np.abs(y), np.abs(end))
    return bool(np.all(np.abs(T) <= scale[:, None]))


def reference_run(system, y, path, cfg, punctures, capture_after=(),
                  trace=False):
    """``iterint._run`` as it was before each level became one GEMM on its
    parents' rows and the top level one thin product: every level gathers
    its parents' node values and letters row by row, runs a full GEMM
    against the integration matrix, and every row's tail is read from its
    node values and always put to the full test against atol + rtol times
    the endpoint values.  It takes its pieces from ``_plan`` and halves a
    piece whose tail is above the tolerance, so its pieces are _run's.
    Returns _run's (endpoint, captured, trace rows) and the pieces counted
    by its budget (each piece planned and each half of a tail split)."""
    x, ST, tail, *_ = _spectral()
    s = 0.5 * (1.0 + x)
    n = system.n
    Y = np.empty((n, _NODES), dtype=complex)
    Y[0] = y[0]
    G = np.empty((len(system.evaluators), _NODES), dtype=complex)
    width = max((hi - lo for lo, hi, *_ in system.levels), default=0)
    P = np.empty((width, _NODES), dtype=complex)
    Q = np.empty_like(P)

    def solve(piece) -> bool:
        z, dz = piece.nodes(s)
        for j, ev in enumerate(system.evaluators):
            G[j] = ev(z)
        G[:] *= 0.5 * dz
        for lo, hi, *_ in system.levels:
            k = hi - lo
            np.take(Y, system.parents[lo:hi], axis=0, out=P[:k], mode="clip")
            np.take(G, system.slots[lo:hi], axis=0, out=Q[:k], mode="clip")
            np.multiply(P[:k], Q[:k], out=P[:k])
            np.matmul(P[:k], ST, out=Y[lo:hi])
            Y[lo:hi] += y[lo:hi, None]
        return reference_tails_within(Y @ tail, y, Y[:, -1], cfg)

    captured = {}
    rows = []
    capture_after = set(capture_after)
    pieces = 0
    for si, seg in enumerate(path.segments):
        plan = _plan(seg, punctures, iterint._MAX_PIECES - pieces)
        pieces += len(plan)
        todo = plan[::-1]
        while todo:
            ta, tb = todo.pop()
            if not solve(seg.piece(ta, tb)):
                pieces += 2
                if pieces > iterint._MAX_PIECES:
                    raise NumericError("integration piece budget exhausted")
                todo += _halves(ta, tb)
                continue
            y = Y[:, -1].copy()
            if trace:
                rows.extend((si + ta + (tb - ta) * s[k], Y[:, k].copy())
                            for k in range(1, _NODES))
        if si in capture_after:
            captured[si] = y
    return y, captured, rows, pieces
