"""Regularized hyperlogarithms on the punctured plane.

Words over the puncture labels integrate from the origin once the divergent
leading letter is split off: every word decomposes into admissible pieces
shuffled against powers of the single zero letter, and the zero letter is
assigned the principal logarithm.  Admissible pieces are carried from the
origin to a nearby reference point by power series, then continued along
planned paths by the cut formula for concatenated paths.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import lru_cache

from .curve_genus0 import PoleSet, Section
from .errors import DomainError
from .iterint import IntegratorConfig, Path, integrate_h_words, plan_chain
from .local_expansion import expand_at, series_values
from .monodromy import Loop
from .scalars import QI
from .shuffle_core import ShuffleTensor, shuffle, shuffle_power

_SERIES_TERMS = 80


def zero_label(ps: PoleSet) -> str:
    i = ps.zero_index
    if i is None:
        raise DomainError("the pole set does not contain the origin")
    return ps.label(i)


def is_admissible(word, ps: PoleSet) -> bool:
    """True when the word integrates to a function holomorphic at the
    origin (empty, or first letter away from the origin)."""
    word = tuple(word)
    z = zero_label(ps)
    return not word or word[0] != z


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
        for kk, t in self.parts:
            if kk == k:
                return t
        return ShuffleTensor.zero()

    @property
    def max_log_power(self) -> int:
        return max((k for k, _ in self.parts), default=0)

    def reassemble(self, ps: PoleSet) -> ShuffleTensor:
        z = zero_label(ps)
        x = ShuffleTensor.from_word((z,))
        total = ShuffleTensor.zero()
        for k, t in self.parts:
            total = total + shuffle(t, shuffle_power(x, k))
        return total


def regularize(word, ps: PoleSet) -> RegularizedWord:
    """Split off the divergence at the origin.

    Peeling one leading zero letter at a time: shuffling the zero letter
    into the tail counts the leading block once per slot plus interior
    insertions, and solving for the word expresses it through words with
    strictly fewer leading zeros.
    """
    word = tuple(word)
    z = zero_label(ps)
    for lab in word:
        ps.index(lab)  # validate letters early

    memo: dict = {}

    def rec(w: tuple) -> dict:
        if w in memo:
            return memo[w]
        if not w or w[0] != z:
            out = {0: ShuffleTensor.from_word(w)}
        else:
            k = 0
            while k < len(w) and w[k] == z:
                k += 1
            tail = rec(w[1:])
            out = {p + 1: t for p, t in tail.items()}
            body = w[1:]
            for i in range(k, len(body) + 1):
                inserted = body[:i] + (z,) + body[i:]
                for p, t in rec(inserted).items():
                    out[p] = out.get(p, ShuffleTensor.zero()) - t
            inv = QI.of(1) / QI.of(k)
            out = {p: t.scale(inv) for p, t in out.items() if not t.is_zero}
        memo[w] = out
        return out

    parts = rec(word)
    pairs = tuple(sorted((k, t) for k, t in parts.items() if not t.is_zero))
    return RegularizedWord(word, pairs)


def reference_point(ps: PoleSet) -> complex:
    """A safe real point inside the disk around the origin that is free of
    other punctures: half the distance to the nearest one."""
    zero_label(ps)
    r = min((abs(p) for p in ps.as_complex if p != 0), default=2.0)
    return complex(r / 2.0)


def _assemble(parts, taylors, endpoint_vals, logz) -> complex:
    total = 0j
    for k, tensor in parts:
        piece = 0j
        for u, c in tensor.terms.items():
            acc = 0j
            for cut in range(len(u) + 1):
                acc += taylors[u[:cut]] * endpoint_vals[u[cut:]]
            piece += complex(c) * acc
        total += piece * logz ** k
    return total


def _evaluate(words, pts, ps: PoleSet, cfg, tail: Path | None = None):
    """Values of the words at the points, visited in order along one chain
    of planned paths from the reference point.  A tail path closed at the
    last point is traversed before the values at that point are read."""
    zlab = zero_label(ps)
    regs = {w: regularize(w, ps) for w in set(words)}
    admissible = set()
    for reg in regs.values():
        for _, t in reg.parts:
            admissible.update(t.terms)
    suffixes = {w[k:] for w in admissible for k in range(len(w) + 1)}
    suffixes.add((zlab,))

    if any(z == 0 for z in pts):
        raise DomainError("evaluation at the origin is the regularization point")
    z1 = reference_point(ps)
    path, marks = plan_chain(z1, pts, ps)
    if tail is not None:
        path = path + tail
        marks[-1] = len(path.segments) - 1
    section = Section.standard(ps)
    vals_end, caps = integrate_h_words(
        path, suffixes, section, cfg, capture_after=[m for m in marks if m >= 0])
    taylors = series_values(admissible, ps, z1, _SERIES_TERMS)
    base_vals = {w: (1.0 + 0j if not w else 0j) for w in vals_end}
    out = []
    for m in marks:
        vals = base_vals if m < 0 else caps[m]
        logz = cmath.log(z1) + vals[(zlab,)]
        out.append({w: _assemble(regs[w].parts, taylors, vals, logz)
                    for w in words})
    return out


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
        scale = max(1.0, abs(z))
        if abs(loop.base - z) > 1e-9 * scale:
            raise DomainError("continuation loop must be based at the point")
        path_class = f"principal*{loop.label}"
    [row] = _evaluate([word], [z], ps, cfg, loop.path if loop else None)
    return HyperlogValue(row[word], word, z, path_class)


def eval_batch(words, points, poles, cfg: IntegratorConfig | None = None):
    """Values of several words at several points through one shared run.

    The points are visited in the given order along one continuous chain of
    planned paths, so every value lives on the branch reached by that chain.
    Returns one dict per point, keyed by the original words.
    """
    ps = PoleSet.of(poles)
    words = [tuple(w) for w in words]
    pts = [complex(p) for p in points]
    if not pts:
        return []
    return _evaluate(words, pts, ps, cfg)


@lru_cache(maxsize=None)
def _limit_at_one(word: tuple, order: int) -> complex:
    ps = PoleSet.of("0,1")
    exp = expand_at(word, ps, center=1, order=order)
    return exp.coeff(0, 0)


def mzv(word, order: int = 30) -> complex:
    """The limit at one of a label word over the two punctures 0 and 1,
    read off as the constant term of the local expansion there.

    A word ending in the letter at one diverges and is rejected; sign and
    depth conventions follow the iterated integral, so for instance the
    word (1, 0) evaluates to minus the Basel constant."""
    word = tuple(str(lab).strip() for lab in word)
    for lab in word:
        if lab not in ("0", "1"):
            raise DomainError(f"letter {lab!r} is not a puncture of 0,1")
    if not word:
        return 1.0 + 0j
    if word[-1] == "1":
        raise DomainError("word ends at the puncture 1; the limit diverges")
    return _limit_at_one(word, order)


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
