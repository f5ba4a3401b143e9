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
letter moved by that path's turns about 0; a planned leg without a detour
winds about nothing.
A lone point that starts from its own series integrates along an empty
path, which builds no word system and returns its series values.  Such a
point still pays for its planned leg, the split of its word, the series of
the admissible pieces and the empty path's clearance and letter checks.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from math import comb, factorial, pi

from .curve_genus0 import PoleSet, Section
from .errors import DomainError
from .iterint import (ArcSeg, IntegratorConfig, LineSeg, Path, glued,
                      integrate_h_words, plan_chain, plan_path)
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


def _start(z: complex, ps: PoleSet):
    """The head of a chain to its first point z and the winding about the
    origin to add to the zero letter's value at the head's start.

    The planned leg from the reference point z1 is the path that fixes z's
    sheet.  When z lies in the disk |z| < r = 2 z1 free of other punctures
    and the leg, closed by the chord back to z1, winds about no puncture
    but the origin, the leg's only effect on the series is n turns of
    log z: the head is then the radial line from z, or from z's ray at the
    radius 3/4 r where the series stops, to z, with n = (the leg's sweep
    about 0 - arg z) / 2 pi.  A leg without a detour is its own chord, and
    one whose arcs all circle the origin (radius at most 0.8 z1) lies with
    it in the disk: only an arc about another puncture (a point just inside
    the rim beside a close one plans it) makes the windings about the others
    worth summing; they came to 0 on every such leg found.  Any other leg is
    the head itself, from z1."""
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
            if any(round((leg.sweep(p) + back.sweep(p)) / (2 * pi))
                   for p in ps.as_complex if p != 0):
                return leg, 0
        turns = round((leg.sweep(0j) - cmath.phase(z)) / (2 * pi))
    return Path.line(z * min(1.0, _MAX_RATIO * r / abs(z)), z), turns


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
    _, caps = integrate_h_words(
        path, start, Section.standard(ps), cfg,
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
