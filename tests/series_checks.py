"""Checks on series values that only the tests need, and the code that
faster routes replaced, kept as their references."""

import math

import numpy as np

from curvelog.curve_genus0 import PoleSet, RationalFunction, Section
from curvelog.errors import NumericError
from curvelog.hyperlog import (_combine, reference_point, regularize,
                               zero_label)
from curvelog.iterint import (_NODES, IntegratorConfig, _run, _spectral,
                              _WordSystem, integrate_h_words, label_words,
                              plan_chain)
from curvelog.local_expansion import series_values
from curvelog.reduce import (NormalForm, _as_omega_tensor, _check_basepoint,
                             _integrate_term, normal_form)
from curvelog.scalars import accumulate
from curvelog.shuffle_core import ShuffleTensor, shuffle, shuffle_words


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
                _integrate_term(u, f * letter.f, section, x0, terms)
            running = accumulate(terms)
        out.extend(running.items())
    return NormalForm(ps, section, x0, tuple(accumulate(out).items()))


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
    """``iterint._integrate`` as it was before a path without segments
    skipped its word system: every call builds the system, runs it from
    start (the unit when None) and unpacks every vector into a dict."""
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


def reference_run(system, y, path, cfg, punctures, capture_after=(),
                  trace=False):
    """``iterint._run`` as it was before each level became one GEMM on its
    parents' rows and the top level one thin product: every level gathers
    its parents' node values and letters row by row, runs a full GEMM
    against the integration matrix, and every row's tail is read from its
    node values.  Returns _run's (endpoint, captured, trace rows) and the
    pieces examined."""
    x, ST, tail, _ = _spectral()
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
        scale = cfg.atol + cfg.rtol * np.maximum(np.abs(y), np.abs(Y[:, -1]))
        return bool(np.all(np.abs(Y @ tail) <= scale[:, None]))

    captured = {}
    rows = []
    capture_after = set(capture_after)
    pieces = 0
    for si, seg in enumerate(path.segments):
        todo = [(0.0, 1.0)]
        while todo:
            ta, tb = todo.pop()
            pieces += 1
            if pieces > cfg.max_steps:
                raise NumericError("integration piece budget exhausted")
            piece = seg.piece(ta, tb)
            clear = min((piece.min_distance(p) for p in punctures),
                        default=math.inf)
            if piece.length > clear or not solve(piece):
                mid = 0.5 * (ta + tb)
                if not ta < mid < tb:
                    raise NumericError("integration piece underflow: the "
                                       "tolerance is below rounding error")
                todo += [(mid, tb), (ta, mid)]
                continue
            y = Y[:, -1].copy()
            if trace:
                rows.extend((si + ta + (tb - ta) * s[k], Y[:, k].copy())
                            for k in range(1, _NODES))
        if si in capture_after:
            captured[si] = y
    return y, captured, rows, pieces
