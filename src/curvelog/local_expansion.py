"""Local expansions of hyperlogarithms around exact points.

Around any exact center the value of a label word is a polynomial in the
local logarithm with holomorphic coefficients: a finite double sum of
x^j log(x)^k over j at least zero.  This is the package's one series
engine: a series is held densely as one coefficient array over j for each
power of the logarithm, each letter multiplies by its own series and
integrates termwise, and one routine sums the result, in x / r for r the
center's distance to the nearest other puncture.  With zero constants a
series is the regularized integral from its center; elsewhere expand_at
matches them where its series is exact, whatever the order asked for.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from numbers import Integral

import numpy as np

from .curve_genus0 import PoleSet
from .errors import (DEFAULT_ORDER, BudgetError, DomainError, InputError,
                     NumericError)
from .iterint import IntegratorConfig, check_prefix_budget
from .scalars import QI

_CHECK_TOL = 1e-6

# the largest order expand_at takes, which keeps each of a letter's cached
# vectors (_letter) within 2^12 entries, 64 KiB; DEFAULT_ORDER, the order
# expand_at and the CLI use when none is given, lives in errors
_MAX_ORDER = 4095
# the least |w|^k within one block of a letter's running sum, so that the
# powers w^-j it multiplies by stay below 2^400, far from overflow for
# coefficients of at most one
_SUM_FLOOR = 2.0 ** -400
# the order series_values sums to at the ratio one half, where mzv and a
# chain from the reference point start; at the ratio q it sums
# SERIES_TERMS ln 2 / -ln q terms, so q to the order stays 2^-80
SERIES_TERMS = 80
# the largest ratio of |x| to the center's distance to the nearest other
# puncture that series_values sums at: 193 terms
_MAX_RATIO = 0.75


@dataclass(frozen=True, eq=False)
class LogLaurentExpansion:
    """A finite double series sum of c[j,k] x^j log(x)^k on a punctured disk.

    x is the displacement from the center and the logarithm is principal.
    The series is guaranteed faithful for |x| below the stored radius.
    rows[k, j] is c[j,k], held read-only; expansions compare by identity.
    """

    word: tuple
    center: complex
    radius: float
    order: int
    rows: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rows", np.array(self.rows, dtype=complex))
        self.rows.setflags(write=False)

    @cached_property
    def coeffs(self) -> dict:
        return {(j, k): c for k, row in enumerate(self.rows.tolist())
                for j, c in enumerate(row) if c != 0}

    def coeff(self, j: int, k: int) -> complex:
        return self.coeffs.get((j, k), 0j)

    @property
    def log_degree(self) -> int:
        return max((k for (_, k) in self.coeffs), default=0)

    def evaluate(self, z: complex) -> complex:
        x = complex(z) - self.center
        if x == 0:
            raise DomainError("the expansion lives on the punctured disk; "
                              "its center is excluded")
        if not abs(x) < self.radius:  # NaN too
            raise DomainError(
                f"point lies outside the disk of radius {self.radius:.3g} "
                f"around {self.center}")
        return _series_sum(self.rows, x, cmath.log(x))

    def substitute_log_shift(self, delta: complex) -> "LogLaurentExpansion":
        """Replace log(x) by log(x) + delta and re-expand binomially: the
        Pascal matrix of entries C(k, m) delta^(k - m) times the rows."""
        delta, k = complex(delta), np.arange(len(self.rows))
        with np.errstate(all="ignore"):
            pascal = (np.vectorize(math.comb)(k, k[:, None])
                      * delta ** np.maximum(k - k[:, None], 0))
            rows = pascal @ self.rows
        if not (cmath.isfinite(delta) and np.isfinite(rows).all()):
            raise DomainError(f"log shift {delta!r} is not finite or overflows")
        return replace(self, rows=rows)

    def to_json(self):
        return {
            "word": list(self.word),
            "center": [self.center.real, self.center.imag],
            "radius": self.radius,
            "order": self.order,
            "terms": [{"j": j, "k": k, "coeff": [c.real, c.imag]}
                      for (j, k), c in sorted(self.coeffs.items())],
        }


def _powers(w: complex, size: int) -> np.ndarray:
    """w^j for j below size, doubled in blocks, so that each is about
    2 log2(j) roundings from exact."""
    powers = np.ones(1, dtype=complex)
    while len(powers) < size:
        powers = np.concatenate((powers, powers * (powers[-1] * w)))
    return powers[:size]


@lru_cache(maxsize=8)
def _reciprocals_to(size: int) -> np.ndarray:
    out = np.zeros(size + 1)
    out[1:] = 1.0 / np.arange(1, size + 1)
    out.setflags(write=False)
    return out


def _reciprocals(order: int) -> np.ndarray:
    """0 and then 1/i for i in 1..order, the termwise integration of
    x^(i - 1), read off one cached array for orders up to the next power of
    two."""
    return _reciprocals_to(1 << order.bit_length())[:order + 1]


@lru_cache(maxsize=32)
def _letter(ps: PoleSet, lab: str, center: QI, size: int, scale: float):
    """The letter dz/(z - pole) about the center for orders below size: in
    u = x / scale it is du/(u - e) for e = (pole - center) / scale, whose
    series is -sum w^(m+1) u^m for w = 1/e, none above one when the scale
    is the center's distance to the nearest other puncture.  None for the
    center's own letter, which is 1/x itself; otherwise the read-only
    tables a step reads: the length k of a block of its running sum, w^-j
    for j below k, the row (0, -w, -w^2, ...) and the row times 1/i.  k is
    size unless |w|^k would fall below _SUM_FLOOR, so that no w^-j passes
    1 / _SUM_FLOOR."""
    p = ps.points[ps.index(lab)]
    if p == center:
        return None
    if complex(center - p) == 0:
        raise DomainError("a pole and the center coincide as floats")
    w = np.complex128(scale / complex(p - center))
    a = abs(w)
    if a ** size >= _SUM_FLOOR:
        k = size
    else:  # a w that underflows to zero has no terms to sum
        k = max(1, int(math.log(_SUM_FLOOR) / math.log(a))) if a else 1
    down = _powers(1 / w, k) if k > 1 else np.ones(1, dtype=complex)
    row = -_powers(w, size)
    row[0] = 0
    fold = row * _reciprocals_to(size)[:size]
    for table in (down, row, fold):
        table.setflags(write=False)
    return k, down, row, fold


def _letter_product(rows: np.ndarray, letter: tuple) -> np.ndarray:
    """The rows times the letter's series, column i holding the coefficient
    of u^(i - 1): -w^i times the sum over j < i of rows[:, j] w^-j, one
    running sum along each row, started again every k columns of the
    letter's tables from the column before, which is minus the sum carried
    so far.  Its rounding is bounded as a dot product's.  Where w is 1,
    -1, i or -i every product by a power of w is exact, so each sum adds
    the same terms in the same order as one row's dot product with the
    letter's coefficients, and the result is that product's, bit for
    bit."""
    m, n = rows.shape
    k, down, row, _ = letter
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


def _letter_step(rows: np.ndarray, letter: tuple | None,
                 inv: np.ndarray | None = None) -> np.ndarray:
    """Multiply a series by one letter's series (_letter; by nothing when
    the letter is None, the center's own 1/x), then integrate termwise from
    the center with a zero constant.  rows[k, j] is the coefficient of
    u^j log(x)^k; a new top row that stays zero is dropped.  inv is
    ``_reciprocals`` of the order, read here when the caller has not.

    The product is a running sum (_letter_product), O(order) per row.  One
    row times a letter gains no log, and its sum in one block is multiplied
    once by the cached -w^i / i: the product and the integration in one.
    x^-1 log^k integrates to log^(k+1) / (k+1).  The integral of x^(i-1)
    times sum_k p_k log^k is x^i times sum_k a_k log^k, where by parts
    i a_k + (k+1) a_(k+1) = p_k: one pass from the top power down."""
    m, n = rows.shape
    if letter is None:
        prod = rows
    else:
        k, down, _, fold = letter
        if m == 1 and k >= n - 1:
            acc = rows[0, :-1] * down[:n - 1]
            np.add.accumulate(acc, out=acc)
            out = np.empty((1, n), dtype=complex)
            out[0, 0] = 0
            np.multiply(acc, fold[1:n], out=out[0, 1:])
            return out
        prod = _letter_product(rows, letter)
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


def _series_sum(rows: np.ndarray, u: complex, lx: complex) -> complex:
    """The sum of rows[k, j] u^j lx^k, a series' value at its variable u and
    the log lx of the displacement, by Horner's rule in u and then in lx."""
    total = 0j
    for row in rows[::-1]:
        acc = 0j
        for c in reversed(row.tolist()):
            acc = acc * u + c
        total = total * lx + acc
    return total


def _series_order(q: float) -> int:
    """The order series_values sums to at the ratio q of |x| to the center's
    distance to the nearest other puncture: SERIES_TERMS ln 2 / -ln q, so
    80 at one half and 193 at three quarters, and never below
    DEFAULT_ORDER, so that a word's leading terms keep their relative
    accuracy near the center.  A ratio past three quarters is refused: at
    one the series diverges, and below it the terms would run long."""
    # a hair of slack for a ray point at 3/4 r that rounds past it; NaN fails
    if not q <= _MAX_RATIO * (1 + 1e-12):
        raise DomainError(
            f"series ratio {q:.3g} exceeds {_MAX_RATIO}: the point is too far "
            "from the center for its series")
    if q == 0:
        return DEFAULT_ORDER
    return max(DEFAULT_ORDER,
               math.ceil(SERIES_TERMS * math.log(2) / -math.log(q)))


def _center_scale(ps: PoleSet, c_num: complex):
    """The center's distance r to the nearest other puncture, infinite
    where there is none, and the scale of the series' variable u = x /
    scale: r, or 1 where r is infinite."""
    r = min((abs(p - c_num) for p in ps.as_complex if p != c_num),
            default=math.inf)
    return r, (r if r < math.inf else 1.0)


def series_values(words, ps: PoleSet, x: complex, center=0) -> dict:
    """Values at the displacement x from an exact center of every prefix of
    the words, summed from their series there with every integration
    constant zero (the regularized integral from the center); shared
    prefixes are stepped once.  The order follows the ratio of |x| to the
    distance r to the nearest other puncture (_series_order), and the
    series is held in u = x / r, where no letter's coefficient exceeds
    one.  Every prefix is stepped first; then one product of all their
    coefficients with the powers of u, smallest term first, sums each row,
    and Horner's rule in the principal log of x sums each prefix's rows."""
    c = QI.of(center)
    r_c, scale = _center_scale(ps, complex(c))
    order = _series_order(abs(x) / r_c)
    size = 1 << order.bit_length()
    # the powers of u from the highest down, so each sum starts at its
    # smallest term
    powers = np.full(order + 1, complex(x) / scale)
    powers[0] = 1
    np.multiply.accumulate(powers[1:], out=powers[1:])
    powers = powers[::-1]
    lx = cmath.log(x)
    inv = _reciprocals(order)
    letters = {}
    series = {}
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
            if k == 1 and letter is not None:
                # the unit row times the letter is the letter's row, whose
                # integral is the row over i
                rows = letter[3][None, :order + 1]
            else:
                rows = _letter_step(np.eye(1, order + 1, dtype=complex)
                                    if k == 1 else rows, letter, inv)
            series[prefix] = rows
    vals = {(): 1.0 + 0j}
    if not series:
        return vals
    sums = (np.concatenate(list(series.values()))[:, ::-1] @ powers).tolist()
    zero = 0j * lx  # Horner's first step, all a one-row prefix takes
    end = 0
    for prefix, rows in series.items():
        end += len(rows)
        if len(rows) == 1:
            vals[prefix] = zero + sums[end - 1]
            continue
        total = 0j
        for v in reversed(sums[end - len(rows):end]):
            total = total * lx + v
        vals[prefix] = total
    return vals


def expand_at(word, poles, center, order: int = DEFAULT_ORDER,
              cfg: IntegratorConfig | None = None) -> LogLaurentExpansion:
    """Expand a label word around an exact center to an order.

    The series is stepped in u = x / r, r the center's distance to the
    nearest other puncture; its coefficients over x^j are those over u^j
    divided by r^j; one that overflows a float is refused, and so is one
    that underflows where its term could matter in the disk.  At the
    origin every constant is zero.  Elsewhere the series is stepped to the
    order series_values sums at u = 1/4 if that is longer, and each
    prefix's constant is matched there by Chen's composition, so none
    depends on the order; a second in-disk point checks that series
    against the continued function within _CHECK_TOL."""
    from .hyperlog import eval_batch, zero_label

    ps = PoleSet.of(poles)
    word = tuple(word)
    for lab in word:
        ps.index(lab)
    if not isinstance(order, Integral) or order < 1:
        raise DomainError(f"expansion order {order!r} is no positive integer")
    if order > _MAX_ORDER:
        raise BudgetError(f"expansion order {order} exceeds the cap of "
                          f"{_MAX_ORDER} on the letter product")
    c_exact = QI.of(center)
    try:
        c_num = complex(c_exact)
    except OverflowError as exc:
        raise InputError(f"center {center!r} overflows a float") from exc
    zero_label(ps)  # regularization needs the origin among the poles
    r, scale = _center_scale(ps, c_num)
    radius = 0.5 * r if r < math.inf else 1.0

    matched = c_exact != QI.of(0) and word
    steps = order = int(order)
    if matched:
        x_ref = radius / 2.0
        x_chk = 0.45 * radius * cmath.exp(0.25j * math.pi)
        vals_ref, vals_chk = eval_batch(
            [word[:k] for k in range(1, len(word) + 1)],
            [c_num + x_ref, c_num + x_chk], ps, cfg)
        steps = max(order, _series_order(x_ref / scale))

    size = 1 << steps.bit_length()
    rows = np.eye(1, steps + 1, dtype=complex)
    for n, lab in enumerate(word, 1):
        rows = _letter_step(rows, _letter(ps, lab, c_exact, size, scale))
        if matched:
            rows[0, 0] += vals_ref[word[:n]] - _series_sum(
                rows, x_ref / scale, cmath.log(x_ref))
    if matched:
        got = _series_sum(rows, x_chk / scale, cmath.log(x_chk))
        want = vals_chk[word]
        if abs(got - want) > _CHECK_TOL * max(1.0, abs(want)):
            raise NumericError(
                "local expansion disagrees with the continued function at a "
                f"control point (difference {abs(got - want):.3g})")
    rows = rows[:, :order + 1]
    j = np.arange(order + 1)
    with np.errstate(all="ignore"):
        coeffs = np.where(rows == 0, 0, rows / scale ** j)
    if not np.isfinite(coeffs).all():
        raise DomainError(f"the expansion's coefficients at order {order} "
                          "overflow a float")
    # in the disk |u| < 1/2, so term j is at most |u_j| 2^-j: a coefficient
    # that underflows is refused unless its term is below rounding there
    bound = np.ldexp(np.abs(rows), -j)
    lost = (rows != 0) & (np.abs(coeffs) < np.finfo(float).tiny)
    if (bound[lost] > 2.0 ** -53 * bound.max()).any():
        raise DomainError(f"the expansion's coefficients at order {order} "
                          "underflow a float where their terms matter")
    return LogLaurentExpansion(word, c_num, radius, order, coeffs)
