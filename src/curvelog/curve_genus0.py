"""Exact model of the punctured sphere.

Rational functions regular away from a declared finite pole set live in
partial fraction normal form: a polynomial part plus principal parts at the
poles.  Differentials are f(z) dz.  The first de Rham space is spanned by
one residue class per puncture, and a section chooses a differential
representative for each class; the standard section picks dz/(z - s).
``kz_specialization_check`` restricts the pairwise connection on the
configuration space of marked points to the curve, exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm
from numbers import Integral
from typing import Iterable, Mapping

from .errors import BudgetError, DomainError, InputError
from .scalars import QI, _make, exact_str

QI0 = QI.of(0)
# the largest order of a principal part: k numerators, lcm(1..k) in _split
_MAX_POLE_ORDER = 4095


def _hash_once(self) -> int:
    """The hash of the fields, computed once and kept as an attribute that
    is no field, so equality, repr and to_json never see it."""
    try:
        return self._hash
    except AttributeError:
        h = hash(tuple(getattr(self, n) for n in self.__dataclass_fields__))
        object.__setattr__(self, "_hash", h)
        return h


def _state_without_hash(self) -> dict:
    """Copied and pickled state: each copy hashes itself afresh."""
    return {k: v for k, v in self.__dict__.items() if k != "_hash"}


@dataclass(frozen=True)
class PoleSet:
    """An ordered tuple of distinct exact points of the plane."""

    points: tuple

    def __post_init__(self):
        pts = tuple(QI.of(p) for p in self.points)
        object.__setattr__(self, "points", pts)
        if len({p.sort_key() for p in pts}) != len(pts):
            raise DomainError("pole set has repeated points")

    __hash__ = _hash_once
    __getstate__ = _state_without_hash

    @staticmethod
    def of(spec) -> "PoleSet":
        if isinstance(spec, PoleSet):
            return spec
        if isinstance(spec, str):
            parts = [p.strip() for p in spec.split(",") if p.strip()]
            return PoleSet(tuple(QI.of(p) for p in parts))
        return PoleSet(tuple(QI.of(p) for p in spec))

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    @cached_property
    def labels(self) -> tuple:
        return tuple(str(p) for p in self.points)

    def label(self, i: int) -> str:
        return self.labels[i]

    @cached_property
    def key(self) -> str:
        return ";".join(self.labels)

    def index(self, which) -> int:
        if type(which) is int:
            if not 0 <= which < len(self.points):
                raise DomainError(f"pole index {which} out of range")
            return which
        if isinstance(which, QI):
            for i, p in enumerate(self.points):
                if p == which:
                    return i
            raise DomainError(f"{which} is not a declared pole")
        if isinstance(which, str):
            w = which.strip()
            if w in self.labels:
                return self.labels.index(w)
            return self.index(QI.of(w))
        raise DomainError(f"cannot resolve pole {which!r}")

    @cached_property
    def as_complex(self) -> tuple:
        try:
            return tuple(complex(p) for p in self.points)
        except OverflowError:
            raise DomainError("a pole overflows a float") from None

    @cached_property
    def min_pairwise_distance(self) -> float:
        pts = self.as_complex
        ds = [abs(a - b) for k, a in enumerate(pts) for b in pts[k + 1:]]
        if 0 in ds:  # distinct exact points that no numeric work can part
            raise DomainError("two poles coincide as floats")
        return min(ds) if ds else math.inf

    @cached_property
    def guard(self) -> float:
        m = self.min_pairwise_distance
        if math.isfinite(m):
            return max(1e-8, 1e-3 * m)
        return 1e-8

    @cached_property
    def zero_index(self):
        z = QI0
        for i, p in enumerate(self.points):
            if p == z:
                return i
        return None

    def to_json(self):
        return list(self.labels)


@dataclass(frozen=True, init=False)
class RationalFunction:
    """Partial fraction normal form over a fixed pole set, held as one int
    vector ``vec`` = (D, P, Q) of the kernels below: reduced by one gcd,
    every list a tuple and Q sorted by pole, so structural equality of
    instances is equality of functions.  ``poly`` (ascending coefficients)
    and ``principal`` (sorted ((pole index, order >= 1), coefficient) pairs
    with no zero entries) read it back as QI.
    """

    poles: PoleSet
    vec: tuple

    def __init__(self, poles: PoleSet, poly=(), principal=()):
        # one vector per nonzero term, summed by the kernels
        parts = [((c._abd[2], [*[_Z] * j, c._abd[:2]], ()), 1, 0, 1)
                 for j, c in enumerate(map(QI.of, poly)) if c]
        if not isinstance(principal, (tuple, list)) and isinstance(
                principal, Mapping):
            principal = principal.items()
        for key, c in principal:
            if not all(isinstance(n, Integral) for n in key[:2]):
                raise DomainError(f"principal key {key!r} is not two integers")
            i, k, (a, b, d) = int(key[0]), int(key[1]), QI.of(c)._abd
            if k > _MAX_POLE_ORDER:
                raise BudgetError(f"pole order {k} exceeds the cap of "
                                  f"{_MAX_POLE_ORDER} on a principal part")
            if not (a or b):
                continue
            # every key is checked before summing, even one that cancels
            if k < 1:
                raise DomainError("principal part orders start at 1")
            if not 0 <= i < len(poles):
                raise DomainError(f"pole index {i} out of range")
            parts.append(((d, (), ((i, [*[_Z] * (k - 1), (a, b)]),)), 1, 0, 1))
        object.__setattr__(self, "poles", poles)
        object.__setattr__(self, "vec", _canonical(_vsum(parts)))

    __hash__ = _hash_once
    __getstate__ = _state_without_hash

    @classmethod
    def zero(cls, ps: PoleSet) -> "RationalFunction":
        return _rf(ps, (1, (), ()))

    @classmethod
    def const(cls, ps: PoleSet, c) -> "RationalFunction":
        return _rf(ps, _vconst(*QI.of(c)._abd))

    @classmethod
    def coordinate(cls, ps: PoleSet) -> "RationalFunction":
        return _rf(ps, (1, (_Z, (1, 0)), ()))

    @classmethod
    def pole_power(cls, ps: PoleSet, which, order: int, coeff=1) -> "RationalFunction":
        i = ps.index(which)
        return cls(ps, (), (((i, order), QI.of(coeff)),))

    @property
    def poly(self) -> tuple:
        D, P, _ = self.vec
        return tuple(_make(a, b, D) for a, b in P)

    @property
    def principal(self) -> tuple:
        D, _, Q = self.vec
        return tuple(((i, k), _make(a, b, D)) for i, q in Q
                     for k, (a, b) in enumerate(q, 1) if a or b)

    @property
    def is_zero(self) -> bool:
        return not self.vec[1] and not self.vec[2]

    @property
    def constant_term(self) -> QI:
        D, P, _ = self.vec
        return _make(*P[0], D) if P else QI0

    def _check(self, other: "RationalFunction"):
        if self.poles != other.poles:
            raise DomainError("pole set mismatch between rational functions")

    def __add__(self, other):
        if isinstance(other, (int, Fraction, QI)):
            other = RationalFunction.const(self.poles, other)
        elif not isinstance(other, RationalFunction):
            return NotImplemented
        self._check(other)
        return _rf(self.poles, _vsum([(self.vec, 1, 0, 1),
                                      (other.vec, 1, 0, 1)]))

    def __neg__(self):
        return _rf(self.poles, _vsum([(self.vec, -1, 0, 1)]))

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "RationalFunction":
        a, b, d = QI.of(c)._abd
        if not (a or b):
            return RationalFunction.zero(self.poles)
        return _rf(self.poles, _vsum([(self.vec, a, b, d)]))

    def __mul__(self, other):
        """self * other through the generators of O(C) (``_vmul``)."""
        if isinstance(other, (int, Fraction, QI)):
            return self.scale(other)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        self._check(other)
        return _rf(self.poles,
                   _vmul(self.vec, other.vec, _pole_ints(self.poles)))

    __rmul__ = __mul__

    def differentiate(self) -> "RationalFunction":
        """z^j maps to j z^(j-1), and (z-s)^(-k) to -k (z-s)^(-k-1)."""
        D, P, Q = self.vec
        return _rf(self.poles, (
            D, [(j * a, j * b) for j, (a, b) in enumerate(P[1:], 1)],
            [(i, [_Z, *((-k * a, -k * b) for k, (a, b) in enumerate(q, 1))])
             for i, q in Q]))

    def antiderivative(self) -> "RationalFunction":
        """Termwise antiderivative with zero integration constant.

        Defined only when no simple pole is present (the residue obstruction);
        (z-s)^(-k) maps to (z-s)^(1-k)/(1-k) for k >= 2.
        """
        for i, q in self.vec[2]:
            if q[0] != _Z:
                raise DomainError(
                    f"residue at {self.poles.label(i)} obstructs integration")
        return _rf(self.poles, _split(self.vec, None)[1])

    def residues(self) -> dict:
        D, _, Q = self.vec
        return {i: _make(*q[0], D) for i, q in Q if q[0] != _Z}

    def evaluate(self, z: complex) -> complex:
        z = complex(z)
        for i, _ in self.vec[2]:
            if z == self.poles.as_complex[i]:
                raise DomainError(f"evaluation at the pole {self.poles.label(i)}")
        return self.compiled()(z)

    def evaluate_exact(self, z) -> QI:
        return _make(*_veval(self.vec, QI.of(z), self.poles))

    def compiled(self):
        """A fast complex evaluator closed over float data.  Each a / D is
        correctly rounded, as complex() of the reduced QI is, and the terms
        are summed by (pole, order)."""
        D, P, Q = self.vec
        pts = self.poles.as_complex
        pcoeffs = [complex(a / D, b / D) for a, b in reversed(P)]
        pps = [(pts[i], k, complex(a / D, b / D)) for i, q in Q
               for k, (a, b) in enumerate(q, 1) if a or b]

        def ev(z: complex) -> complex:
            v = 0j
            for c in pcoeffs:
                v = v * z + c
            for s, k, c in pps:
                v += c / (z - s) ** k
            return v

        return ev

    def __str__(self):
        if self.is_zero:
            return "0"
        bits = []
        for j, c in enumerate(self.poly):
            if c.is_zero:
                continue
            if j == 0:
                bits.append(f"{c}")
            elif j == 1:
                bits.append(f"({c})*z")
            else:
                bits.append(f"({c})*z^{j}")
        for (i, k), c in self.principal:
            s = self.poles.label(i)
            denom = f"(z-({s}))" if k == 1 else f"(z-({s}))^{k}"
            bits.append(f"({c})/{denom}")
        return " + ".join(bits)

    def to_json(self):
        return {"poly": [exact_str(c) for c in self.poly],
                "principal": [{"pole": self.poles.label(i), "order": k,
                               "coeff": exact_str(c)}
                              for (i, k), c in self.principal]}

    @classmethod
    def from_json(cls, ps: PoleSet, obj) -> "RationalFunction":
        """Read a payload: a pole by its label string, an order by an int."""
        poly, principal = obj.get("poly", []), obj.get("principal", [])
        if type(poly) is not list or type(principal) is not list:
            raise InputError("'poly' and 'principal' must be JSON lists")
        pp = []
        for item in principal:
            if (type(item) is not dict
                    or not item.keys() >= {"pole", "order", "coeff"}):
                raise InputError(f"principal item {item!r} needs the keys "
                                 f"'pole', 'order' and 'coeff'")
            pole, k = item["pole"], item["order"]
            if type(pole) is not str:
                raise InputError(f"pole {pole!r} is not a label string")
            i = ps.index(pole)
            if type(k) is not int:
                raise InputError(f"pole order {k!r} is not an integer")
            pp.append(((i, k), QI.of(item["coeff"])))
        return cls(ps, tuple(QI.of(c) for c in poly), tuple(pp))


def _rf(ps: PoleSet, v: tuple) -> RationalFunction:
    """The function of an int vector, made canonical, built unchecked."""
    # set one by one, not through __dict__, which would build a dict for
    # every instance on top of its inline attribute values
    r = object.__new__(RationalFunction)
    object.__setattr__(r, "poles", ps)
    object.__setattr__(r, "vec", _canonical(v))
    return r


# The int kernels.  Here a function is a vector (D, P, Q): a denominator
# D > 0, the polynomial numerators P by degree, and Q, the pairs (pole,
# its numerators by order 1, 2, ...) of each pole with a principal part.
# A numerator is an (re, im) pair of ints, P and each q end in a nonzero
# pair, and no kernel changes its input.  Steps and sums leave to _reduced
# the one gcd that makes a vector normal, and _canonical also fixes its
# containers and order, so that equal functions have equal vectors.

_Z = (0, 0)


def _reduced(D: int, P, Q) -> tuple:
    g = D if D == 1 else gcd(D, *[x for _, q in ((-1, P), *Q)
                                 for c in q for x in c])
    if g == 1:
        return D, P, Q
    return (D // g, [(a // g, b // g) for a, b in P],
            [(j, [(a // g, b // g) for a, b in q]) for j, q in Q])


def _canonical(v: tuple) -> tuple:
    D, P, Q = _reduced(*v)
    return D, tuple(P), tuple(sorted((j, tuple(q)) for j, q in Q))


def _vconst(a: int, b: int, d: int) -> tuple:
    g = gcd(a, b, d)
    return d // g, [(a // g, b // g)] if a or b else [], ()


def _ginv(a: int, b: int, m: int):
    """m / (a + b i) as (x, y, e) = (x + y i)/e in lowest terms, or None."""
    n = a * a + b * b
    g = gcd(m * a, m * b, n)
    return (m * a // g, -m * b // g, n // g) if n else None


@lru_cache(maxsize=64)
def _pole_ints(ps: PoleSet) -> tuple:
    """The points as the kernels read them: their common denominator m,
    each point times m as an (re, im) pair, and inv[i][j] = 1/(s_i - s_j)."""
    m = lcm(*(p._abd[2] for p in ps.points))
    S = [(a * (m // d), b * (m // d)) for a, b, d in (p._abd for p in ps)]
    return m, S, [[None if s is t else _ginv(s[0] - t[0], s[1] - t[1], m)
                   for t in S] for s in S]


def _section_vectors(section: "Section") -> tuple:
    """The vectors of g_s - g_s(0) by pole (None where zero, and for all
    when every one is) and of each form by label, for the kernels: the
    standard section's in closed form, 1/(z - s_i) at pole i, and a
    corrected section's through _corrected_vectors."""
    if section.is_standard:
        return None, {lab: (1, (), ((i, ((1, 0),)),))
                      for i, lab in enumerate(section.poles.labels)}
    return _corrected_vectors(section)


@lru_cache(maxsize=64)
def _corrected_vectors(section: "Section") -> tuple:
    """_section_vectors of a section with a nonzero correction, built
    through RationalFunction arithmetic once per section."""
    corr = [None if h.is_zero else h.vec
            for h in (g - g.constant_term for g in section.corrections)]
    return corr if any(corr) else None, {
        lab: w.f.vec for lab, w in zip(section.poles.labels, section.forms)}


def _vl(v: tuple, i: int, pts: tuple) -> tuple:
    """v / (z - s), s = S/m the pole at i: synthetic division of the
    polynomial part, one order up at s, and at each other pole t, with
    d = 1/(s - t), 1/((z - t)^l (z - s)) = d^l/(z - s) - sum_j
    d^(l-j+1)/(z - t)^j, both by Horner's rule over one multiplier M."""
    D, P, Q = v
    m, S, inv = pts
    M = m ** (len(P) - 1) if len(P) > 1 else 1
    for j, q in Q:
        M *= inv[i][j][2] ** len(q) if j != i else 1
    rr = ri = 0
    if P:
        (sr, si), (rr, ri), mt, sc, out = S[i], P[-1], 1, M, []
        for pr, pi in P[-2::-1]:
            out.append((rr * sc, ri * sc))
            mt, sc = mt * m, sc // m
            rr, ri = mt * pr + sr * rr - si * ri, mt * pi + sr * ri + si * rr
        P, rr, ri = out[::-1], rr * sc, ri * sc
    new, at = [], ()
    for j, q in Q:
        if j == i:
            at = q
            continue
        (x, y, e), L = inv[i][j], len(q)
        sc, ar, ai, out = M // e ** L, 0, 0, [None] * L
        for k in range(L - 1, -1, -1):
            f = e ** (L - 1 - k)
            ar, ai = ar + f * q[k][0], ai + f * q[k][1]
            ar, ai, f = ar * x - ai * y, ar * y + ai * x, -e ** k * sc
            out[k] = (ar * f, ai * f)
        new.append((j, out))
        rr, ri = rr + ar * sc, ri + ai * sc
    q = [(a * M, b * M) for a, b in at]
    if q or rr or ri:
        new.append((i, [(rr, ri), *q]))
    return D * M, P, new


def _vsum(parts) -> tuple:
    """The sum of (cr + ci i)/cd v over the parts (v, cr, ci, cd), in one
    pass over their common denominator."""
    if len(parts) == 1:
        (D, P, Q), cr, ci, cd = parts[0]
        if cr == 1 and not ci:
            return D * cd, P, Q
        return D * cd, [(a * cr - b * ci, a * ci + b * cr) for a, b in P], [
            (j, [(a * cr - b * ci, a * ci + b * cr) for a, b in q])
            for j, q in Q]
    L = lcm(*[v[0] * cd for v, _, _, cd in parts])
    acc, merged = {}, set()
    for (D, P, Q), cr, ci, cd in parts:
        xr, xi = L // (D * cd) * cr, L // (D * cd) * ci
        for j, q in ((-1, P), *Q):
            p = acc.get(j)
            if p is None:
                acc[j] = [(a * xr - b * xi, a * xi + b * xr) for a, b in q]
                continue
            merged.add(j)
            for k, (a, b) in enumerate(q):
                a, b = a * xr - b * xi, a * xi + b * xr
                if k < len(p):
                    p[k] = (p[k][0] + a, p[k][1] + b)
                else:
                    p.append((a, b))
    for j in merged:  # only a sum can cancel a top pair
        while acc[j] and acc[j][-1] == _Z:
            acc[j].pop()
    P = acc.pop(-1, [])
    return L, P, [(j, q) for j, q in acc.items() if q]


def _vmul(f: tuple, g: tuple, pts: tuple) -> tuple:
    """f * g through the generators of O(C): f stepped by 1/(z - s) once
    per order of g's principal part at s, and g's polynomial part shifted
    once per degree and stepped by 1/(z - s) once per order of f, each step
    scaled by the other's numerator of its power, all summed once."""
    (Df, Pf, Qf), (Dg, Pg, Qg) = f, g
    parts, todo = [], [(f, Qg, Dg)]
    if Pg:
        parts = [((Dg, [*[_Z] * j, *Pg], ()), cr, ci, Df)
                 for j, (cr, ci) in enumerate(Pf) if cr or ci]
        todo.append(((Dg, Pg, ()), Qf, Df))
    for step0, Q, D in todo:
        for i, q in Q:
            step = step0
            for cr, ci in q:
                step = _vl(step, i, pts)
                if cr or ci:
                    parts.append((step, cr, ci, D))
    return _vsum(parts) if parts else (1, (), ())


def _vtotal(vs: list) -> tuple:
    """The normal vector of a sum of normal vectors."""
    return vs[0] if len(vs) == 1 else _reduced(*_vsum([(v, 1, 0, 1)
                                                         for v in vs]))


def _split(v: tuple, corrections, sign: int = 1) -> tuple:
    """decompose on vectors, of sign * v: the residues by pole, over v's
    denominator, and the normal antiderivative without constant of the
    rest over one multiplier lcm(1..K), less c_s corrections[s] for each
    residue c_s (corrections from _section_vectors)."""
    D, P, Q = v
    M = lcm(*range(1, max([len(P) + 1, *(len(q) for _, q in Q)])))
    res, out, s = {}, [], -sign * M
    for j, q in Q:
        if q[0] != _Z:
            res[j] = sign * q[0][0], sign * q[0][1]
        if len(q) > 1:
            out.append((j, [(a * (s // k), b * (s // k))
                            for k, (a, b) in enumerate(q[1:], 1)]))
    f = (D * M, [_Z, *[(-a * (s // k), -b * (s // k))
                       for k, (a, b) in enumerate(P, 1)]] if P else P, out)
    parts = corrections and [(corrections[j], -a, -b, D)
                             for j, (a, b) in res.items() if corrections[j]]
    return res, _reduced(*_vsum([(f, 1, 0, 1), *parts]) if parts else f)


def _veval(v: tuple, x: QI, ps: PoleSet) -> tuple:
    """v at x as (re, im, den), by Horner's rule in x and in 1/(x - s)."""
    (D, P, Q), (xa, xb, xd) = v, x._abd
    m, S, _ = _pole_ints(ps)
    vals = []
    for j, q in ((-1, P), *Q):
        w = (xa, xb, xd) if j < 0 else _ginv(
            xa * m - S[j][0] * xd, xb * m - S[j][1] * xd, xd * m)
        if w is None:
            raise DomainError(f"evaluation at the pole {ps.label(j)}")
        (wr, wi, e), (hr, hi), den = w, (q or [_Z])[-1], 1
        for a, b in [*q[-2::-1], *[_Z] * (j >= 0)]:
            den *= e
            hr, hi = hr * wr - hi * wi + den * a, hr * wi + hi * wr + den * b
        vals.append((hr, hi, den))
    L = lcm(*[d for _, _, d in vals])
    return (sum(a * (L // d) for a, _, d in vals),
            sum(b * (L // d) for _, b, d in vals), D * L)


@dataclass(frozen=True)
class Differential:
    """A one-form f(z) dz over the declared pole set."""

    f: RationalFunction

    __hash__ = _hash_once
    __getstate__ = _state_without_hash

    @property
    def poles(self) -> PoleSet:
        return self.f.poles

    @cached_property
    def label(self) -> str:
        return f"({self.f})dz"

    @cached_property
    def alphabet(self) -> str:
        return "omega:" + self.f.poles.key

    @property
    def is_zero(self) -> bool:
        return self.f.is_zero

    def project(self) -> "DeRhamClass":
        cs = [QI0] * len(self.poles)
        for i, c in self.f.residues().items():
            cs[i] = c
        return DeRhamClass(self.poles, tuple(cs))

    def __str__(self):
        return self.label


@dataclass(frozen=True)
class DeRhamClass:
    """A vector of residue classes, one coordinate per puncture."""

    poles: PoleSet
    coeffs: tuple

    def __post_init__(self):
        cs = tuple(c if type(c) is QI else QI.of(c) for c in self.coeffs)
        if len(cs) != len(self.poles):
            raise DomainError("class vector length does not match the pole set")
        object.__setattr__(self, "coeffs", cs)

    @classmethod
    def basis(cls, ps: PoleSet, which) -> "DeRhamClass":
        i = ps.index(which)
        cs = [QI0] * len(ps)
        cs[i] = QI.of(1)
        return cls(ps, tuple(cs))

    @classmethod
    def zero(cls, ps: PoleSet) -> "DeRhamClass":
        return cls(ps, tuple(QI0 for _ in range(len(ps))))

    def __add__(self, other: "DeRhamClass") -> "DeRhamClass":
        if self.poles != other.poles:
            raise DomainError("pole set mismatch between classes")
        return DeRhamClass(self.poles,
                           tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return DeRhamClass(self.poles, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "DeRhamClass":
        c = QI.of(c)
        return DeRhamClass(self.poles, tuple(v * c for v in self.coeffs))

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.coeffs)

    def nonzero(self):
        return [(i, c) for i, c in enumerate(self.coeffs) if not c.is_zero]

    def __str__(self):
        if self.is_zero:
            return "0"
        return " + ".join(f"({c})*h[{self.poles.label(i)}]"
                          for i, c in self.nonzero())


@dataclass(frozen=True)
class Section:
    """A choice of differential representative for each residue class.

    The representative of the class at s is dz/(z - s) + d(correction_s);
    the standard section has all corrections zero.
    """

    poles: PoleSet
    corrections: tuple

    def __post_init__(self):
        cs = tuple(self.corrections)
        if len(cs) != len(self.poles):
            raise DomainError("need one correction per puncture")
        for g in cs:
            if not isinstance(g, RationalFunction) or g.poles != self.poles:
                raise DomainError("corrections must live over the same pole set")
        object.__setattr__(self, "corrections", cs)

    @staticmethod
    def standard(ps) -> "Section":
        """The section with all corrections zero, built once per pole set."""
        return _standard_section(PoleSet.of(ps))

    @cached_property
    def is_standard(self) -> bool:
        return all(g.is_zero for g in self.corrections)

    @cached_property
    def forms(self) -> tuple:
        """The representative of each class, in pole order."""
        out = []
        for i, g in enumerate(self.corrections):
            base = RationalFunction.pole_power(self.poles, i, 1)
            out.append(Differential(
                base if g.is_zero else base + g.differentiate()))
        return tuple(out)

    def form(self, which) -> Differential:
        return self.forms[self.poles.index(which)]

    def apply(self, h: DeRhamClass) -> Differential:
        if h.poles != self.poles:
            raise DomainError("class and section live over different pole sets")
        total = RationalFunction.zero(self.poles)
        for i, c in h.nonzero():
            total = total + self.form(i).f.scale(c)
        return Differential(total)

    def word(self, labels: Iterable) -> tuple:
        return tuple(self.form(lab) for lab in labels)


@lru_cache(maxsize=64)
def _standard_section(ps: PoleSet) -> Section:
    return Section(ps, tuple(RationalFunction.zero(ps) for _ in range(len(ps))))


def dlog(ps: PoleSet, which) -> Differential:
    """The form dz/(z - s)."""
    return Differential(RationalFunction.pole_power(ps, which, 1))


def d(f: RationalFunction) -> Differential:
    """The exact form df."""
    return Differential(f.differentiate())


def decompose(w: Differential, section: Section):
    """Split a differential as section(class) + df; returns (class, f).

    The class is the residue vector c.  The section represents the class at
    s by dz/(z - s) + dg_s, so f is the antiderivative of w without its
    simple poles minus c_s g_s for each s, every term taken without its
    constant: that zero-constant convention makes the pair unique.
    """
    ps = w.poles
    if ps != section.poles:
        raise DomainError("class and section live over different pole sets")
    v = w.f.vec
    res, f = _split(v, _section_vectors(section)[0])
    # unchecked, as _rf builds functions: one QI per pole by construction
    h = object.__new__(DeRhamClass)
    object.__setattr__(h, "poles", ps)
    object.__setattr__(h, "coeffs", tuple(
        _make(*res.get(i, _Z), v[0]) for i in range(len(ps))))
    return h, _rf(ps, f)


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
