"""Exact model of the punctured sphere.

Rational functions regular away from a declared finite pole set live in
partial fraction normal form: a polynomial part plus principal parts at the
poles.  Differentials are f(z) dz.  The first de Rham space is spanned by
one residue class per puncture, and a section chooses a differential
representative for each class; the standard section picks dz/(z - s).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping

from .errors import DomainError
from .scalars import QI
from .shuffle_core import Letter


@dataclass(frozen=True)
class PoleSet:
    """An ordered tuple of distinct exact points of the plane."""

    points: tuple

    def __post_init__(self):
        pts = tuple(QI.of(p) for p in self.points)
        object.__setattr__(self, "points", pts)
        if len({p.sort_key() for p in pts}) != len(pts):
            raise DomainError("pole set has repeated points")

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
        if isinstance(which, int):
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
        return tuple(complex(p) for p in self.points)

    @cached_property
    def min_pairwise_distance(self) -> float:
        pts = self.as_complex
        ds = [abs(a - b) for k, a in enumerate(pts) for b in pts[k + 1:]]
        return min(ds) if ds else math.inf

    @property
    def guard(self) -> float:
        m = self.min_pairwise_distance
        if math.isfinite(m):
            return max(1e-8, 1e-3 * m)
        return 1e-8

    @cached_property
    def zero_index(self):
        z = QI.of(0)
        for i, p in enumerate(self.points):
            if p == z:
                return i
        return None

    def to_json(self):
        return list(self.labels)


def _trim(poly):
    lst = list(poly)
    while lst and lst[-1].is_zero:
        lst.pop()
    return tuple(lst)


def _pow(c: QI, k: int) -> QI:
    if k < 0:
        return _pow(QI.of(1) / c, -k)
    out = QI.of(1)
    base = c
    while k:
        if k & 1:
            out = out * base
        base = base * base
        k >>= 1
    return out


def _poly_add(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = out[i] + c
    return _trim(out)


def _poly_mul(a, b):
    if not a or not b:
        return ()
    out = [QI.of(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x.is_zero:
            continue
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return _trim(out)


def _poly_taylor(poly, s: QI):
    """Coefficients of p in powers of (z - s), given coefficients in z."""
    n = len(poly)
    out = []
    for m in range(n):
        acc = QI.of(0)
        for j in range(m, n):
            acc = acc + poly[j] * math.comb(j, m) * _pow(s, j - m)
        out.append(acc)
    return tuple(out)


def _shifted_monomial(s: QI, m: int):
    """Coefficients in z of (z - s)^m."""
    return tuple(QI.of(math.comb(m, j)) * _pow(-s, m - j) for j in range(m + 1))


@dataclass(frozen=True)
class RationalFunction:
    """Partial fraction normal form over a fixed pole set.

    ``poly`` holds ascending coefficients; ``principal`` is a sorted tuple of
    ((pole index, order >= 1), coefficient) pairs with no zero entries, so
    structural equality of instances is equality of functions.
    """

    poles: PoleSet
    poly: tuple = ()
    principal: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "poly",
                           _trim(tuple(QI.of(c) for c in self.poly)))
        raw = (self.principal.items()
               if isinstance(self.principal, Mapping) else self.principal)
        cleaned: dict = {}
        for key, c in raw:
            i, k = int(key[0]), int(key[1])
            c = QI.of(c)
            if c.is_zero:
                continue
            if k < 1:
                raise DomainError("principal part orders start at 1")
            if not 0 <= i < len(self.poles):
                raise DomainError(f"pole index {i} out of range")
            prev = cleaned.get((i, k), QI.of(0)) + c
            if prev.is_zero:
                cleaned.pop((i, k), None)
            else:
                cleaned[(i, k)] = prev
        object.__setattr__(self, "principal", tuple(sorted(cleaned.items())))

    @classmethod
    def zero(cls, ps: PoleSet) -> "RationalFunction":
        return cls(ps)

    @classmethod
    def const(cls, ps: PoleSet, c) -> "RationalFunction":
        return cls(ps, (QI.of(c),))

    @classmethod
    def coordinate(cls, ps: PoleSet) -> "RationalFunction":
        return cls(ps, (QI.of(0), QI.of(1)))

    @classmethod
    def pole_power(cls, ps: PoleSet, which, order: int, coeff=1) -> "RationalFunction":
        i = ps.index(which)
        return cls(ps, (), (((i, order), QI.of(coeff)),))

    @property
    def principal_map(self) -> dict:
        return dict(self.principal)

    @property
    def is_zero(self) -> bool:
        return not self.poly and not self.principal

    @property
    def is_constant(self) -> bool:
        return not self.principal and len(self.poly) <= 1

    @property
    def constant_term(self) -> QI:
        return self.poly[0] if self.poly else QI.of(0)

    def _check(self, other: "RationalFunction"):
        if self.poles != other.poles:
            raise DomainError("pole set mismatch between rational functions")

    def __add__(self, other):
        if isinstance(other, (int, Fraction, QI)):
            other = RationalFunction.const(self.poles, other)
        self._check(other)
        pp = dict(self.principal)
        for key, c in other.principal:
            total = pp.get(key, QI.of(0)) + c
            if total.is_zero:
                pp.pop(key, None)
            else:
                pp[key] = total
        return RationalFunction(self.poles, _poly_add(self.poly, other.poly),
                                tuple(pp.items()))

    def __neg__(self):
        return RationalFunction(self.poles, tuple(-c for c in self.poly),
                                tuple((k, -c) for k, c in self.principal))

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, QI)):
            other = RationalFunction.const(self.poles, other)
        return self + (-other)

    def scale(self, c) -> "RationalFunction":
        c = QI.of(c)
        if c.is_zero:
            return RationalFunction(self.poles)
        return RationalFunction(self.poles,
                                tuple(v * c for v in self.poly),
                                tuple((k, v * c) for k, v in self.principal))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, QI)):
            return self.scale(other)
        self._check(other)
        ps = self.poles
        poly = list(_poly_mul(self.poly, other.poly))
        princ: dict = {}

        def add_poly(p):
            nonlocal poly
            poly = list(_poly_add(tuple(poly), p))

        def add_pp(i, k, c):
            if c.is_zero:
                return
            total = princ.get((i, k), QI.of(0)) + c
            if total.is_zero:
                princ.pop((i, k), None)
            else:
                princ[(i, k)] = total

        def poly_times_pp(polyc, i, k, c):
            # p(z) * c/(z-s)^k, re-expanded around s
            if not polyc or c.is_zero:
                return
            s = ps.points[i]
            for m, bm in enumerate(_poly_taylor(polyc, s)):
                if bm.is_zero:
                    continue
                if m >= k:
                    add_poly(tuple(v * (bm * c) for v in _shifted_monomial(s, m - k)))
                else:
                    add_pp(i, k - m, c * bm)

        for (i, k), c in self.principal:
            poly_times_pp(other.poly, i, k, c)
        for (i, k), c in other.principal:
            poly_times_pp(self.poly, i, k, c)

        for (i, k), c in self.principal:
            for (j, l), dcoef in other.principal:
                cd = c * dcoef
                if cd.is_zero:
                    continue
                if i == j:
                    add_pp(i, k + l, cd)
                    continue
                s, t = ps.points[i], ps.points[j]
                # cross expansion of 1/((z-s)^k (z-t)^l)
                for a in range(1, k + 1):
                    m = k - a
                    sign = QI.of(-1) if m % 2 else QI.of(1)
                    coeff = sign * math.comb(l + m - 1, m) * _pow(s - t, -(l + m))
                    add_pp(i, a, cd * coeff)
                for b in range(1, l + 1):
                    m = l - b
                    sign = QI.of(-1) if m % 2 else QI.of(1)
                    coeff = sign * math.comb(k + m - 1, m) * _pow(t - s, -(k + m))
                    add_pp(j, b, cd * coeff)

        return RationalFunction(ps, tuple(poly), tuple(princ.items()))

    __rmul__ = __mul__

    def differentiate(self) -> "RationalFunction":
        dpoly = tuple(self.poly[j] * j for j in range(1, len(self.poly)))
        pp = {}
        for (i, k), c in self.principal:
            pp[(i, k + 1)] = c * (-k)
        return RationalFunction(self.poles, dpoly, tuple(pp.items()))

    def antiderivative(self) -> "RationalFunction":
        """Termwise antiderivative with zero integration constant.

        Defined only when no simple pole is present (the residue obstruction);
        (z-s)^(-k) maps to (z-s)^(1-k)/(1-k) for k >= 2.
        """
        for (i, k), c in self.principal:
            if k == 1:
                raise DomainError(
                    f"residue at {self.poles.label(i)} obstructs integration")
        poly = (QI.of(0),) + tuple(c / (j + 1) for j, c in enumerate(self.poly))
        pp = {}
        for (i, k), c in self.principal:
            pp[(i, k - 1)] = c / (1 - k)
        return RationalFunction(self.poles, poly, tuple(pp.items()))

    def residues(self) -> dict:
        return {i: c for (i, k), c in self.principal if k == 1}

    def evaluate(self, z: complex) -> complex:
        z = complex(z)
        val = 0j
        for c in reversed(self.poly):
            val = val * z + complex(c)
        for (i, k), c in self.principal:
            dz = z - self.poles.as_complex[i]
            if dz == 0:
                raise DomainError(f"evaluation at the pole {self.poles.label(i)}")
            val += complex(c) / dz ** k
        return val

    def evaluate_exact(self, z) -> QI:
        z = QI.of(z)
        val = QI.of(0)
        for c in reversed(self.poly):
            val = val * z + c
        for (i, k), c in self.principal:
            dz = z - self.poles.points[i]
            if dz.is_zero:
                raise DomainError(f"evaluation at the pole {self.poles.label(i)}")
            val = val + c / _pow(dz, k)
        return val

    def compiled(self):
        """A fast complex evaluator closed over float data."""
        pcoeffs = [complex(c) for c in reversed(self.poly)]
        pps = [(self.poles.as_complex[i], k, complex(c))
               for (i, k), c in self.principal]

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
        return {"poly": [str(c) for c in self.poly],
                "principal": [{"pole": self.poles.label(i), "order": k,
                               "coeff": str(c)}
                              for (i, k), c in self.principal]}

    @classmethod
    def from_json(cls, ps: PoleSet, obj) -> "RationalFunction":
        poly = tuple(QI.of(c) for c in obj.get("poly", []))
        pp = []
        for item in obj.get("principal", []):
            i = ps.index(item["pole"])
            pp.append(((i, int(item["order"])), QI.of(item["coeff"])))
        return cls(ps, poly, tuple(pp))


@dataclass(frozen=True)
class Differential:
    """A one-form f(z) dz over the declared pole set."""

    f: RationalFunction

    @property
    def poles(self) -> PoleSet:
        return self.f.poles

    @cached_property
    def label(self) -> str:
        return f"({self.f})dz"

    @property
    def alphabet(self) -> str:
        return "omega:" + self.f.poles.key

    @property
    def is_zero(self) -> bool:
        return self.f.is_zero

    def project(self) -> "DeRhamClass":
        return DeRhamClass.from_map(self.f.poles, self.f.residues())

    def __str__(self):
        return self.label


@dataclass(frozen=True)
class DeRhamClass:
    """A vector of residue classes, one coordinate per puncture."""

    poles: PoleSet
    coeffs: tuple

    def __post_init__(self):
        cs = tuple(QI.of(c) for c in self.coeffs)
        if len(cs) != len(self.poles):
            raise DomainError("class vector length does not match the pole set")
        object.__setattr__(self, "coeffs", cs)

    @classmethod
    def from_map(cls, ps: PoleSet, mapping: Mapping) -> "DeRhamClass":
        cs = [QI.of(0)] * len(ps)
        for i, c in mapping.items():
            cs[ps.index(i)] = QI.of(c)
        return cls(ps, tuple(cs))

    @classmethod
    def basis(cls, ps: PoleSet, which) -> "DeRhamClass":
        i = ps.index(which)
        cs = [QI.of(0)] * len(ps)
        cs[i] = QI.of(1)
        return cls(ps, tuple(cs))

    @classmethod
    def zero(cls, ps: PoleSet) -> "DeRhamClass":
        return cls(ps, tuple(QI.of(0) for _ in range(len(ps))))

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

    @classmethod
    def standard(cls, ps) -> "Section":
        ps = PoleSet.of(ps)
        return cls(ps, tuple(RationalFunction.zero(ps) for _ in range(len(ps))))

    @cached_property
    def is_standard(self) -> bool:
        return all(g.is_zero for g in self.corrections)

    def form(self, which) -> Differential:
        i = self.poles.index(which)
        base = RationalFunction.pole_power(self.poles, i, 1)
        g = self.corrections[i]
        if g.is_zero:
            return Differential(base)
        return Differential(base + g.differentiate())

    def apply(self, h: DeRhamClass) -> Differential:
        if h.poles != self.poles:
            raise DomainError("class and section live over different pole sets")
        total = RationalFunction.zero(self.poles)
        for i, c in h.nonzero():
            total = total + self.form(i).f.scale(c)
        return Differential(total)

    def word(self, labels: Iterable) -> tuple:
        return tuple(self.form(lab) for lab in labels)


def dlog(ps: PoleSet, which) -> Differential:
    """The form dz/(z - s)."""
    return Differential(RationalFunction.pole_power(ps, which, 1))


def d(f: RationalFunction) -> Differential:
    """The exact form df."""
    return Differential(f.differentiate())


def decompose(w: Differential, section: Section):
    """Split a differential as section(class) + df; returns (class, f).

    f is normalized by the zero-constant antiderivative convention, so the
    pair is unique.
    """
    h = w.project()
    rem = w.f - section.apply(h).f
    return h, rem.antiderivative()


def de_rham_alphabet(ps: PoleSet) -> str:
    return "deRham:" + ps.key


def de_rham_letter(ps: PoleSet, which) -> Letter:
    i = ps.index(which)
    return Letter(ps.label(i), de_rham_alphabet(ps))


def h_word(ps: PoleSet, labels: Iterable) -> tuple:
    """A word of residue-class letters from pole labels or indices."""
    return tuple(de_rham_letter(ps, lab) for lab in labels)
