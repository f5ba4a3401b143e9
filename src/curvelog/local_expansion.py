"""Local expansions of hyperlogarithms around exact points.

Around any exact center the value of a label word is a polynomial in the
local logarithm with holomorphic coefficients: a finite double sum of
x^j log(x)^k over j at least zero.  This is the package's one series
engine: a series is held densely as one coefficient array over j for each
power of the logarithm, each letter multiplies by its own series and
integrates termwise, and one routine sums the result.  With zero constants
a series is the regularized integral from its center; at a center other
than the origin expand_at matches them against the continued function.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from .curve_genus0 import PoleSet
from .errors import BudgetError, DomainError, InputError, NumericError
from .iterint import IntegratorConfig, check_prefix_budget
from .scalars import QI

_CHECK_TOL = 1e-6

# the expansion order expand_at and the CLI use when none is given, and the
# largest expand_at takes: each letter's product costs O(order^2) per row
DEFAULT_ORDER = 24
_MAX_ORDER = 4095
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
        return _series_sum(self.rows, x)

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


@lru_cache(maxsize=32)
def _letter_coeffs(ps: PoleSet, lab: str, center: QI, size: int,
                   scale: float):
    """After size zeros, the coefficients over u^m of 1/(u - e), for m
    below size - 1, where u = x / scale and e = (pole - center) / scale;
    None for the center's own letter, which is 1/x itself."""
    p = ps.points[ps.index(lab)]
    if p == center:
        return None
    if complex(center - p) == 0:
        raise DomainError("a pole and the center coincide as floats")
    # 1/(u - e) is minus the sum of w^(m + 1) u^m for w = 1/e; the powers
    # of w are doubled in blocks, so each is about 2 log2(m) roundings
    # from exact
    w, powers = scale / complex(p - center), np.ones(1, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        while len(powers) < size:
            powers = np.concatenate((powers, powers * (powers[-1] * w)))
    out = np.zeros(2 * size - 1, dtype=complex)
    out[size:] = -powers[1:]
    out.setflags(write=False)
    return out


def _letter_series(ps: PoleSet, lab: str, center: QI, order: int,
                   scale: float = 1.0):
    """Multiplication by the letter dz/(z - pole), which is du/(u - e) in
    u = x / scale for e = (pole - center) / scale, as the matrix taking
    coefficients over u^j to coefficients over u^(i - 1), for i and j in
    0..order: entry (j, i) is the coefficient of u^(i - 1 - j) in
    1/(u - e).  It is a read-only Toeplitz view of the letter's cached
    coefficients, which serve every order up to the next power of two, so
    no matrix is kept.  A coefficient past the float range is refused.
    The letter at the center is 1/x itself, whose matrix is the identity:
    None then, and the step multiplies by nothing."""
    n = order + 1
    size = 1 << order.bit_length()
    coeffs = _letter_coeffs(ps, lab, center, size, scale)
    if coeffs is None:
        return None
    # |w^m| is monotone in m, so the last coefficient overflows first
    if not cmath.isfinite(coeffs[size + order - 1]):
        raise DomainError(f"the series of the letter {lab} at order {order} "
                          "overflows a float")
    # entry (j, i) is coeffs[size - 1 - j + i]
    step = coeffs.itemsize
    return np.ndarray((n, n), complex, coeffs, (size - 1) * step,
                      (-step, step))


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


def _letter_step(rows: np.ndarray, letter: np.ndarray | None,
                 inv: np.ndarray | None = None) -> np.ndarray:
    """Multiply a series by one letter's series (by nothing when the letter
    is None, the center's own 1/x), then integrate termwise from the center
    with a zero constant.  rows[k, j] is the coefficient of x^j log(x)^k; a
    new top row that stays zero is dropped.  inv is ``_reciprocals`` of
    the order, read here when the caller has not.

    x^-1 log^k integrates to log^(k+1) / (k+1).  The integral of x^(i-1)
    times sum_k p_k log^k is x^i times sum_k a_k log^k, where by parts
    i a_k + (k+1) a_(k+1) = p_k: one pass from the top power down."""
    prod = rows if letter is None else rows @ letter
    m, n = prod.shape
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
    c_num = complex(c)
    r_c = min((abs(p - c_num) for p in ps.as_complex if p != c_num),
              default=math.inf)
    order = _series_order(abs(x) / r_c)
    scale = r_c if r_c < math.inf else 1.0
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
                letters[lab] = _letter_series(ps, lab, c, order, scale)
            letter = letters[lab]
            if k == 1:
                # the unit row times the letter is the letter's first row
                rows = (np.eye(1, order + 1, dtype=complex) if letter is None
                        else letter[:1])
                letter = None
            rows = series[prefix] = _letter_step(rows, letter, inv)
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
    for n, lab in enumerate(word):
        rows = _letter_step(rows, _letter_series(ps, lab, c_exact, order))
        if not at_origin:
            rows[0, 0] += vals_ref[word[:n + 1]] - _series_sum(rows, x_ref)
    exp = LogLaurentExpansion(word, c_num, radius, order, rows)
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

