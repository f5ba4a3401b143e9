"""Local expansions of hyperlogarithms around exact points.

Around any exact center the value of a label word is a polynomial in the
local logarithm with holomorphic coefficients: a finite double sum of
x^j log(x)^k over j at least zero.  This is the package's one series
engine: a series is held densely as one coefficient array over j for each
power of the logarithm, each letter multiplies by its own series and
integrates termwise, and one routine sums the result.  Integration
constants are exact zeros at the origin and are matched numerically
against the continued function at other centers.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .curve_genus0 import PoleSet
from .errors import DomainError, InputError, NumericError
from .iterint import IntegratorConfig, check_budget
from .scalars import QI

_CHECK_TOL = 1e-6

# the expansion order expand_at and the CLI use when none is given
DEFAULT_ORDER = 24


@dataclass(frozen=True)
class LogLaurentExpansion:
    """A finite double series sum of c[j,k] x^j log(x)^k on a punctured disk.

    x is the displacement from the center and the logarithm is principal.
    The series is guaranteed faithful for |x| below the stored radius.
    """

    word: tuple
    center: complex
    radius: float
    order: int
    terms: tuple  # pairs ((j, k), complex), canonically sorted

    @cached_property
    def coeffs(self) -> dict:
        return dict(self.terms)

    def coeff(self, j: int, k: int) -> complex:
        return self.coeffs.get((j, k), 0j)

    @property
    def log_degree(self) -> int:
        return max((k for (_, k) in self.coeffs), default=0)

    @cached_property
    def _rows(self) -> np.ndarray:
        width = max((j for (j, _) in self.coeffs), default=0) + 1
        rows = np.zeros((self.log_degree + 1, width), dtype=complex)
        for (j, k), c in self.coeffs.items():
            rows[k, j] = c
        return rows

    def evaluate(self, z: complex) -> complex:
        x = complex(z) - self.center
        if x == 0:
            raise DomainError("the expansion lives on the punctured disk; "
                              "its center is excluded")
        if not abs(x) < self.radius:  # NaN too
            raise DomainError(
                f"point lies outside the disk of radius {self.radius:.3g} "
                f"around {self.center}")
        return _series_sum(self._rows, x)

    def substitute_log_shift(self, delta: complex) -> "LogLaurentExpansion":
        """Replace log(x) by log(x) + delta and re-expand binomially."""
        out: dict = {}
        for (j, k), c in self.coeffs.items():
            for m in range(k + 1):
                key = (j, m)
                out[key] = out.get(key, 0j) + c * math.comb(k, m) * delta ** (k - m)
        terms = tuple(sorted((jk, v) for jk, v in out.items() if v != 0))
        return LogLaurentExpansion(self.word, self.center, self.radius,
                                   self.order, terms)

    def to_json(self):
        return {
            "word": list(self.word),
            "center": [self.center.real, self.center.imag],
            "radius": self.radius,
            "order": self.order,
            "terms": [{"j": j, "k": k, "coeff": [c.real, c.imag]}
                      for (j, k), c in sorted(self.coeffs.items())],
        }


@lru_cache(maxsize=32)
def _letter_series(ps: PoleSet, lab: str, center: QI, order: int):
    """Multiplication by 1/(z - pole) in the local variable x, as the matrix
    taking coefficients over x^j to coefficients over x^(i - 1), for i and j
    in 0..order: entry (j, i) is the letter's coefficient of x^(i - 1 - j).
    The letter at the center is 1/x itself, whose matrix is the identity:
    None then, and the step multiplies by nothing."""
    p = ps.points[ps.index(lab)]
    if p == center:
        return None
    if complex(center - p) == 0:
        raise DomainError("a pole and the center coincide as floats")
    n = order + 1
    inv = 1.0 / complex(center - p)
    g = np.array([-((-inv) ** (m + 1)) for m in range(n)])
    lag = np.arange(n) - np.arange(1, n + 1)[:, None]
    out = np.where(lag >= 0, g[lag], 0)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=8)
def _reciprocals(order: int) -> np.ndarray:
    """1/i for i in 1..order, the termwise integration of x^(i - 1)."""
    out = 1.0 / np.arange(1, order + 1)
    out.setflags(write=False)
    return out


def _letter_step(rows: np.ndarray, letter: np.ndarray | None) -> np.ndarray:
    """Multiply a series by one letter's series (by nothing when the letter
    is None, the center's own 1/x), then integrate termwise from the center
    with a zero constant.  rows[k, j] is the coefficient of x^j log(x)^k; a
    new top row that stays zero is dropped.

    x^-1 log^k integrates to log^(k+1) / (k+1).  The integral of x^(i-1)
    times sum_k p_k log^k is x^i times sum_k a_k log^k, where by parts
    i a_k + (k+1) a_(k+1) = p_k: one pass from the top power down."""
    prod = rows if letter is None else rows @ letter
    inv = _reciprocals(rows.shape[1] - 1)
    out = np.zeros((len(rows) + 1, rows.shape[1]), dtype=complex)
    acc = 0
    for k in range(len(prod) - 1, -1, -1):
        out[k + 1, 0] = prod[k, 0] / (k + 1)
        acc = (prod[k, 1:] - (k + 1) * acc) * inv
        out[k, 1:] = acc
    if not out[-1].any():
        out = out[:-1]
    return out


def _series_sum(rows: np.ndarray, x: complex) -> complex:
    """The value of the sum of rows[k, j] x^j log(x)^k at a nonzero
    displacement x, by Horner's rule in x and then in the principal log."""
    lx = cmath.log(x)
    total = 0j
    for row in rows[::-1]:
        acc = 0j
        for c in reversed(row.tolist()):
            acc = acc * x + c
        total = total * lx + acc
    return total


def series_values(words, ps: PoleSet, z: complex, order: int) -> dict:
    """Values at a point z near the origin of every prefix of the words,
    summed from their series at the origin with every integration constant
    zero, the regularization convention; shared prefixes are stepped once."""
    letters = {lab: _letter_series(ps, lab, QI.of(0), order)
               for lab in ps.labels}
    series = {(): np.eye(1, order + 1, dtype=complex)}
    vals = {(): 1.0 + 0j}
    for w in words:
        for k in range(1, len(w) + 1):
            prefix = w[:k]
            if prefix in series:
                continue
            series[prefix] = _letter_step(series[w[:k - 1]],
                                          letters[prefix[-1]])
            vals[prefix] = _series_sum(series[prefix], z)
    return vals


def expand_at(word, poles, center, order: int = DEFAULT_ORDER,
              cfg: IntegratorConfig | None = None) -> LogLaurentExpansion:
    """Expand a label word around an exact center.

    At the origin every integration constant vanishes by the regularization
    convention, so the result is exact up to rounding.  At any other center
    the constants are matched against the function continued to the point
    half a radius to the right of the center, and a second in-disk point
    cross-checks the match, within _CHECK_TOL or, where it is larger, the
    truncation remainder the order implies there.
    """
    from .hyperlog import eval_batch, zero_label

    ps = PoleSet.of(poles)
    word = tuple(word)
    for lab in word:
        ps.index(lab)
    if order < 1:
        raise DomainError("expansion order must be at least one")
    check_budget(16 * (order + 1) ** 2,
                 f"the letter matrix of expansion order {order}")
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
    for n, lab in enumerate(word):
        rows = _letter_step(rows, _letter_series(ps, lab, c_exact, order))
        if not at_origin:
            rows[0, 0] += vals_ref[word[:n + 1]] - _series_sum(rows, x_ref)
    terms = (((j, k), c) for k, row in enumerate(rows)
             for j, c in enumerate(row.tolist()) if c != 0)
    exp = LogLaurentExpansion(word, c_num, radius, order,
                              tuple(sorted(terms)))
    if not at_origin and word:
        got = exp.evaluate(z_chk)
        want = vals_chk[word]
        # A letter 1/(z - p) cut at the order leaves u^(order+1)/(1-u) of
        # itself at u = |x| / |center - p|; the matched constants carry the
        # cut at the reference point into the control point, and a factor
        # (letters + 1)^2 covers the tails each step inherits (observed
        # errors stay below a third of this on words up to ten letters).
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

