"""Regularized hyperlogarithms on the punctured plane.

Words over the puncture labels integrate from the origin once the divergent
leading letter is split off: every word decomposes into admissible pieces
shuffled against powers of the single zero letter, and the zero letter is
assigned the principal logarithm; an admissible word is its own piece.
Admissible pieces are carried from the origin by power series to the start
of one integration along the planned paths, where the zero letter starts
at its principal log, and these values are its initial value.  The first
point's sheet is always that of the planned path to it from the reference
point.  Near the origin the local monodromy only moves log z by 2 pi i, so
a first point in the origin's disk starts from its own series (or, past
three quarters of the disk's radius, from its ray there), with the zero
letter moved by that path's turns about 0.  The turns come from the
planner's detour test on the chord from the reference point, and the leg
is built only where that test cannot tell them.
A lone point that starts from its own series integrates along an empty
path, and the integrator is asked for no word there: the call only checks
the point's clearance.  Such a point pays for the detour test, the split
of its word and the series of the admissible pieces.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from math import comb, factorial, pi

from .curve_genus0 import PoleSet, Section
from .errors import DomainError
from .iterint import (_MAX_MODULUS, ArcSeg, IntegratorConfig, LineSeg, Path,
                      _check_distances, _detours, glued, integrate_h_words,
                      plan_chain, plan_path)
from .local_expansion import _MAX_RATIO, series_values
from .monodromy import Loop
from .scalars import QI, _make
from .shuffle_core import ShuffleTensor, suffix_shuffles


_ONE = QI.of(1)


def zero_label(ps: PoleSet) -> str:
    i = ps.zero_index
    if i is None:
        raise DomainError("the pole set does not contain the origin")
    return ps.label(i)


@dataclass(frozen=True)
class HyperlogValue:
    """A continued hyperlogarithm value with its provenance attached."""

    value: complex
    word: tuple
    point: complex
    path_class: str

    def __post_init__(self):
        object.__setattr__(self, "value", complex(self.value))

    def __complex__(self) -> complex:
        return self.value

    def __abs__(self) -> float:
        return abs(self.value)

    def __repr__(self):
        return (f"HyperlogValue({self.value!r}, word={self.word!r}, "
                f"point={self.point!r}, path_class={self.path_class!r})")


@dataclass(frozen=True)
class RegularizedWord:
    """A word split as a polynomial in the zero letter.

    parts maps the power of the logarithm to a combination of admissible
    words; shuffling each part against the matching shuffle power of the
    zero letter and summing recovers the original word.
    """

    word: tuple
    parts: tuple  # pairs (log power, ShuffleTensor), sorted by power

    @property
    def by_power(self) -> dict:
        return dict(self.parts)

    def tensor(self, k: int) -> ShuffleTensor:
        return self.by_power.get(k, ShuffleTensor.zero())

    @property
    def max_log_power(self) -> int:
        return max((k for k, _ in self.parts), default=0)


def regularize(word, ps: PoleSet) -> RegularizedWord:
    """Split off the divergence at the origin, in closed form.

    The shuffle algebra is a polynomial ring in the zero letter z over the
    admissible words.  For a word z^n b v with b not z, the part of log
    power i is (-1)^(n-i) / i! times b followed by the shuffle of z^(n-i)
    with v; the word z^n alone is 1/n! times the empty word at power n.
    An admissible word (n = 0) is its own part at power 0.
    """
    word = tuple(word)
    z = zero_label(ps)
    labels = ps.labels
    for lab in word:
        if lab not in labels:
            ps.index(lab)  # validate letters early: another spelling or none
    # the letters are checked, so the parts' terms are built unchecked
    if word[:1] != (z,):
        return RegularizedWord(word,
                               ((0, ShuffleTensor._summed({word: _ONE})),))
    n = next((k for k, lab in enumerate(word) if lab != z), len(word))
    if n == len(word):
        return RegularizedWord(word, ((n, ShuffleTensor.from_word(
            (), QI.of(1) / factorial(n))),))
    b, v = word[n], word[n + 1:]
    if v.count(z) == len(v):  # z^k ш z^m is C(k + m, k) z^(k + m)
        zshuffles = [{(z,) * (k + len(v)): comb(k + len(v), k)}
                     for k in range(n + 1)]
    else:
        zshuffles = suffix_shuffles((z,) * n, v)  # entry k is z^k ш v
    parts = []
    for i in range(n + 1):
        sign, d = (-1) ** (n - i), factorial(i)
        parts.append((i, ShuffleTensor._summed(
            {(b,) + w: _make(sign * mult, 0, d)
             for w, mult in zshuffles[n - i].items()})))
    return RegularizedWord(word, tuple(parts))


def reference_point(ps: PoleSet) -> complex:
    """A safe real point inside the disk around the origin that is free of
    other punctures: half the distance to the nearest one.  Planned paths
    from it fix the sheet of every value, and a chain starts here when its
    first point lies outside that disk or its planned leg winds about
    another puncture."""
    zero_label(ps)
    r = min((abs(p) for p in ps.as_complex if p != 0), default=2.0)
    return complex(r / 2.0)


def _tensor_value(t: ShuffleTensor, vals: dict) -> complex:
    acc = 0j
    for w, c in t.terms.items():
        acc += complex(c) * vals[w]
    return acc


def _combine(reg: RegularizedWord, vals: dict, logz: complex) -> complex:
    """The sum over k of part k's value times logz^k, by Horner's rule, so
    a part's 1/k! meets the log before logz^k can overflow."""
    parts = reg.by_power
    total = 0j
    for k in range(max(parts, default=0), -1, -1):
        t = parts.get(k)
        total = total * logz + (0j if t is None else _tensor_value(t, vals))
    return total


def _chord_turns(z1: complex, z: complex, ps: PoleSet, slack: float):
    """The turns about 0 of the planned leg from z1 to a point z in the
    origin's disk, read off the planner's detour test (``_detours``)
    without building the leg, or None when only the planned leg can tell.

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


def _start(z: complex, ps: PoleSet):
    """The head of a chain to its first point z and the winding about the
    origin to add to the zero letter's value at the head's start.

    The planned leg from the reference point z1 is the path that fixes z's
    sheet.  When z lies in the disk |z| < r = 2 z1 free of other punctures
    and the leg, closed by the chord back to z1, winds about no puncture
    but the origin, the leg's only effect on the series is n turns of
    log z: the head is then the radial line from z, or from z's ray at the
    radius 3/4 r where the series stops, to z, with n = (the leg's sweep
    about 0 - arg z) / 2 pi.

    The leg is not built when the planner's detour test tells n
    (``_chord_turns``) and the geometry implies every check the planner
    would make: z lies more than the slack, four guards and 1e-12 r for
    rounding, inside the rim, so that the leg and the head clear the other
    punctures; more than 1e-14 from z1 and, past 3/4 r, from its ray
    point, so that the planner drops no piece; and r is within the
    planner's modulus.  The head is then planned, and no detour fires on
    it.  Otherwise the leg is planned, and only an arc about another
    puncture (a point just inside the rim beside a close one plans it)
    makes the windings about the others worth summing.  They come to 0
    when that puncture lies right of the chord, and to one turn when it
    lies left of it, since the detour always passes on the left.  A leg
    that winds so, and any leg to a point outside the disk, is the head
    itself, from z1."""
    z1 = reference_point(ps)
    r = 2 * z1.real
    if not abs(z) < r:
        return plan_path(z1, z, ps), 0
    base = z * min(1.0, _MAX_RATIO * r / abs(z))
    slack = 4 * ps.guard + 1e-12 * r
    if (r <= _MAX_MODULUS and r - abs(z) > slack and abs(z - z1) > 1e-14
            and not 0 < abs(z - base) <= 1e-14):
        turns = _chord_turns(z1, z, ps, slack)
        if turns is not None:
            return plan_path(base, z, ps), turns
    leg = plan_path(z1, z, ps)
    turns = 0
    if len(leg.segments) > 1:
        if any(isinstance(seg, ArcSeg) and seg.center != 0
               for seg in leg.segments):
            back = LineSeg(z, z1)
            if any(round((leg.sweep(p) + back.sweep(p)) / (2 * pi))
                   for p in ps.as_complex if p != 0):
                return leg, 0
        turns = round((leg.sweep(0j) - cmath.phase(z)) / (2 * pi))
    return Path.line(base, z), turns


def _evaluate(words, pts, ps: PoleSet, cfg, tail: Path | None = None):
    """Values of the words at the points, visited in order along one chain
    of planned paths from the head's start (``_start``).  A tail path
    closed at the last point is traversed before the values at that point
    are read.  The admissible words start at their series values there and
    the zero letter at its principal log, moved to the first point's sheet,
    and all are integrated once along the chain."""
    zlab = zero_label(ps)
    regs = {w: regularize(w, ps) for w in set(words)}
    admissible = {u for reg in regs.values() for _, t in reg.parts
                  for u in t.terms}

    if any(z == 0 for z in pts):
        raise DomainError("evaluation at the origin is the regularization point")
    head, turns = _start(pts[0], ps)
    path, marks = head, [-1]
    if len(pts) > 1:
        rest, legs = plan_chain(pts[0], pts[1:], ps)
        path, marks = head + rest, marks + legs
    marks = [m + len(head.segments) for m in marks]
    if tail is not None:
        path = path + tail
        marks[-1] = len(path.segments) - 1
    start = series_values(admissible, ps, path.base)
    start[(zlab,)] = cmath.log(path.base) + 2j * pi * turns
    # an empty path's rows are all start: the call only checks clearance
    _, caps = integrate_h_words(
        path, start if path.segments else (), Section.standard(ps), cfg,
        capture_after=[m for m in marks if m >= 0], start=start)
    rows = [start if m < 0 else caps[m] for m in marks]
    return [{w: _combine(regs[w], vals, vals[(zlab,)]) for w in words}
            for vals in rows]


def eval_L(word, z, poles, cfg: IntegratorConfig | None = None,
           loop: Loop | None = None) -> HyperlogValue:
    """The regularized hyperlogarithm of a label word at a point.

    An optional loop based at the evaluation point is appended to the
    planned path, continuing the value along that homotopy class; the
    logarithm branch is continued along the very same path.
    """
    ps = PoleSet.of(poles)
    z = complex(z)
    word = tuple(word)
    path_class = "principal"
    if loop is not None:
        if not glued(z, loop.base):
            raise DomainError("continuation loop must be based at the point")
        path_class = f"principal*{loop.label}"
    [row] = _evaluate([word], [z], ps, cfg, loop.path if loop else None)
    return HyperlogValue(row[word], word, z, path_class)


def eval_batch(words, points, poles, cfg: IntegratorConfig | None = None):
    """Values of several words at several points through one shared run.

    The points are visited in the given order along one continuous chain of
    planned paths, so every value lives on the branch reached by that chain:
    the first point on the sheet of the planned path to it from the
    reference point, each later one through the planned path from the point
    before.  Returns one dict per point, keyed by the original words.
    """
    ps = PoleSet.of(poles)
    words = [tuple(w) for w in words]
    pts = [complex(p) for p in points]
    if not pts:
        return []
    return _evaluate(words, pts, ps, cfg)


def mzv(word) -> complex:
    """The regularized limit at one of a label word over the punctures 0
    and 1, by Hölder convolution at one half: the sum over w = u v of u's
    series at the origin summed at 1/2, times v's integral from 1/2 to 1,
    which is (-1)^|v| times v reversed's series at 1 summed at -1/2.

    A word ending in the letter at one diverges and is rejected; sign and
    depth conventions follow the iterated integral, so for instance the
    word (1, 0) evaluates to minus the Basel constant."""
    word = tuple(str(lab).strip() for lab in word)
    for lab in word:
        if lab not in ("0", "1"):
            raise DomainError(f"letter {lab!r} is not a puncture of 0,1")
    if word and word[-1] == "1":
        raise DomainError("word ends at the puncture 1; the limit diverges")
    ps = PoleSet.of("0,1")
    n, rev = len(word), word[::-1]
    # keep the head's values, not its prefix keys, while rev's are built
    head = series_values([word], ps, 0.5)
    head = [head[word[:k]] for k in range(n + 1)]
    tail = series_values([rev], ps, -0.5, center=1)
    return sum((head[k] * (-1) ** (n - k) * tail[rev[:n - k]]
                for k in range(n + 1)), 0j)


def word_for_exponents(ks) -> tuple:
    """The label word whose limit at one is (-1)^depth times the nested sum
    with the given exponents (outermost exponent first)."""
    ks = tuple(int(k) for k in ks)
    if not ks or any(k < 1 for k in ks):
        raise DomainError("exponents must be positive integers")
    word = []
    for k in reversed(ks):
        word.append("1")
        word.extend("0" * (k - 1))
    return tuple(word)
