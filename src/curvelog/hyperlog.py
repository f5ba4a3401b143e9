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
letter moved by that path's turns about 0, whenever the planner's detour
test on the chord from the reference point tells those turns without the
leg: none without a detour, and past a lone half circle about 0, which
passes below it, one turn down for a point above the real axis.  Every
other first point starts at the reference point, and the planned leg from
there is the head of its chain.
A lone point that starts from its own series integrates along an empty
path, and the integrator is asked for no word there: the call only checks
the point's clearance.  Such a point pays for the detour test, the split
of its word and the series of the admissible pieces.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from math import comb, copysign, factorial, pi
from numbers import Integral

from .curve_genus0 import PoleSet, Section
from .errors import DomainError
from .iterint import (_MAX_MODULUS, IntegratorConfig, Path, _check_distances,
                      _detours, check_word_length, glued, integrate_h_words,
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
    from it fix the sheet of every value, and a chain starts here, along
    the planned leg, when the detour test cannot tell its first point's
    turns about 0 (always for a point outside that disk)."""
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


def _start(z: complex, ps: PoleSet):
    """The head of a chain to its first point z and the winding about the
    origin to add to the zero letter's value at the head's start.

    The planned leg from the reference point z1 is the path that fixes z's
    sheet, and a chain starts in one of two ways.  When z lies in the disk
    |z| < r = 2 z1 free of other punctures and the planner's detour test on
    the chord from z1 (``_detours``) tells the leg's turns n about 0, the
    leg's only effect on the series is n turns of log z: the head is then
    the radial line from z, or from z's ray at the radius 3/4 r where the
    series stops, to z.  Without a detour the leg is the chord, whose
    distances are checked as ``plan_path`` checks them, and n is 0.  With a
    lone half circle about 0 of radius rho above the slack, 0 projects
    strictly inside the chord, so the chord from z1 runs leftward past 0,
    and the half circle, on the left of travel, passes below it: n is -1
    when z lies above the real axis (+0.0 on its negative half too) and 0
    otherwise.  That leg's clearance follows from the geometry: the half
    circle keeps rho from 0, and each line piece 0.6 rho, since its far end
    lies at least rho / 0.8 from 0, so it either projects past the half
    circle, or lies more than 0.75 rho off the line through 0 along the
    chord, and then the piece's line passes at least rho 0.75 / 1.25 from
    0; each piece is at least a fifth of its far end's modulus long, so the
    planner keeps it.  Any other detour (one about another puncture beside
    the rim) leaves n untold.  The geometry must also imply every check the
    planner would make on the leg: z lies more than the slack, four guards
    and 1e-12 r for rounding, inside the rim, so that the leg and the head
    clear the other punctures; more than 1e-14 from z1 and, past 3/4 r,
    from its ray point, so that the planner drops no piece; and r is within
    the planner's modulus.  The head is then planned, and no detour fires
    on it.  Otherwise, and for any point outside the disk, the head is the
    planned leg itself, from z1, with no turns."""
    z1 = reference_point(ps)
    r = 2 * z1.real
    if abs(z) < r:
        base = z * min(1.0, _MAX_RATIO * r / abs(z))
        slack = 4 * ps.guard + 1e-12 * r
        if (r <= _MAX_MODULUS and r - abs(z) > slack and abs(z - z1) > 1e-14
                and not 0 < abs(z - base) <= 1e-14):
            _, detours, dists = _detours(z1, z, ps)
            if not detours:
                _check_distances(dists, ps)
                return plan_path(base, z, ps), 0
            _, p, rho = detours[0]
            if len(detours) == 1 and p == 0 and rho > slack:
                return (plan_path(base, z, ps),
                        -1 if copysign(1.0, z.imag) > 0 else 0)
    return plan_path(z1, z, ps), 0


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
    n = len(word)
    # one word's prefix values come shortest first; the head's dict is
    # dropped before rev's is built
    head = list(series_values([word], ps, 0.5).values())
    tail = list(series_values([word[::-1]], ps, -0.5, center=1).values())
    return sum((head[k] * (-1) ** (n - k) * tail[n - k]
                for k in range(n + 1)), 0j)


def word_for_exponents(ks) -> tuple:
    """The label word whose limit at one is (-1)^depth times the nested sum
    with the given exponents (outermost exponent first).  An exponent that
    is not an Integral is refused, not truncated: 2.5, and 2.0 or
    Fraction(2) too, as every integer argument of the package is.  So is a
    word whose prefix set would pass the array cap, before any letter is
    built."""
    ks = tuple(ks)
    if not ks or not all(isinstance(k, Integral) and k >= 1 for k in ks):
        raise DomainError("exponents must be positive integers")
    check_word_length(sum(ks))
    return tuple(lab for k in reversed(ks) for lab in "1" + "0" * (k - 1))
