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
from functools import cached_property, lru_cache
from typing import Iterable, Mapping

from .errors import DomainError, InputError
from .scalars import QI, accumulate, exact_str

QI0 = QI.of(0)
QI1 = QI.of(1)


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

    @property
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


def _trim(poly):
    lst = list(poly)
    while lst and lst[-1].is_zero:
        lst.pop()
    return tuple(lst)


def _poly_add(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = out[i] + c
    return _trim(out)


@dataclass(frozen=True)
class RationalFunction:
    """Partial fraction normal form over a fixed pole set.

    ``poly`` holds ascending coefficients; ``principal`` is a sorted tuple of
    ((pole index, order >= 1), coefficient) pairs with no zero entries, so
    structural equality of instances is equality of functions.  Arithmetic
    results, normal by construction, are built unchecked by ``_rf``.
    """

    poles: PoleSet
    poly: tuple = ()
    principal: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "poly", _trim(tuple(
            c if type(c) is QI else QI.of(c) for c in self.poly)))
        raw = self.principal
        if not isinstance(raw, (tuple, list)) and isinstance(raw, Mapping):
            raw = raw.items()
        n = len(self.poles)
        items = []
        for key, c in raw:
            i, k = key[0], key[1]
            if type(i) is not int:
                i = int(i)
            if type(k) is not int:
                k = int(k)
            if type(c) is not QI:
                c = QI.of(c)
            if c.is_zero:
                continue
            # every key is checked before summing, even one that cancels
            if k < 1:
                raise DomainError("principal part orders start at 1")
            if not 0 <= i < n:
                raise DomainError(f"pole index {i} out of range")
            items.append(((i, k), c))
        object.__setattr__(self, "principal", _sorted_sum(items))

    __hash__ = _hash_once
    __getstate__ = _state_without_hash

    @classmethod
    def zero(cls, ps: PoleSet) -> "RationalFunction":
        return _rf(ps, (), ())

    @classmethod
    def const(cls, ps: PoleSet, c) -> "RationalFunction":
        return _rf(ps, _trim((QI.of(c),)), ())

    @classmethod
    def coordinate(cls, ps: PoleSet) -> "RationalFunction":
        return cls(ps, (QI0, QI.of(1)))

    @classmethod
    def pole_power(cls, ps: PoleSet, which, order: int, coeff=1) -> "RationalFunction":
        i = ps.index(which)
        return cls(ps, (), (((i, order), QI.of(coeff)),))

    @property
    def is_zero(self) -> bool:
        return not self.poly and not self.principal

    @property
    def constant_term(self) -> QI:
        return self.poly[0] if self.poly else QI0

    def _check(self, other: "RationalFunction"):
        if self.poles != other.poles:
            raise DomainError("pole set mismatch between rational functions")

    def __add__(self, other):
        if isinstance(other, (int, Fraction, QI)):
            other = RationalFunction.const(self.poles, other)
        elif not isinstance(other, RationalFunction):
            return NotImplemented
        self._check(other)
        return _rf(self.poles, _poly_add(self.poly, other.poly),
                   _sorted_sum(self.principal + other.principal))

    def __neg__(self):
        return _rf(self.poles, tuple(-c for c in self.poly),
                   tuple((k, -c) for k, c in self.principal))

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "RationalFunction":
        c = QI.of(c)
        if c.is_zero:
            return _rf(self.poles, (), ())
        return _rf(self.poles, tuple(v * c for v in self.poly),
                   tuple((k, v * c) for k, v in self.principal))

    def __mul__(self, other):
        """self * other through the generators of O(C): self is stepped by
        z once per degree of other's polynomial part and by 1/(z - s) once
        per order at each pole s, and each step enters scaled by other's
        coefficient of that generator power."""
        if isinstance(other, (int, Fraction, QI)):
            return self.scale(other)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        self._check(other)
        parts, step = [], self
        for j, c in enumerate(other.poly):
            if j:
                step = step._times_z()
            if not c.is_zero:
                parts.append((step, c))
        pole, order = None, 0
        for (i, k), c in other.principal:
            if i != pole:
                step, pole, order = self, i, 0
            while order < k:
                step, order = step._times_letter(i), order + 1
            parts.append((step, c))
        if len(parts) == 1 and parts[0][1] == QI1:
            # other is one generator power with coefficient 1
            return parts[0][0]
        poly = ()
        for step, c in parts:
            poly = _poly_add(poly, tuple(v * c for v in step.poly))
        return _rf(self.poles, poly, _sorted_sum(
            (k, v * c) for step, c in parts for k, v in step.principal))

    __rmul__ = __mul__

    def _times_z(self) -> "RationalFunction":
        """self * z: the polynomial part moves one degree up, and
        z a/(z - t)^l = a/(z - t)^(l-1) + t a/(z - t)^l, where the order-0
        term goes into the constant."""
        pts = self.poles.points
        const, items = QI0, []
        for (j, l), a in self.principal:
            if l == 1:
                const = const + a
            else:
                items.append(((j, l - 1), a))
            items.append(((j, l), pts[j] * a))
        return _rf(self.poles, _trim((const,) + self.poly), _sorted_sum(items))

    def _times_letter(self, i: int) -> "RationalFunction":
        """self / (z - s), s the pole at index i, part by part: p(z) =
        q(z)(z - s) + p(s) by synthetic division, a/(z - s)^k moves one
        order up, and at each other pole t, with d = s - t,
        1/((z - t)^l (z - s)) = d^-l/(z - s) - sum_j d^-(l-j+1)/(z - t)^j."""
        pts = self.poles.points
        s, poly = pts[i], self.poly
        q, acc = [QI0] * (len(poly) - 1), QI0
        for j in range(len(poly) - 1, 0, -1):
            acc = poly[j] + s * acc
            q[j - 1] = acc
        items = [((i, 1), poly[0] + s * acc)] if poly else []
        for (j, l), a in self.principal:
            if j == i:
                items.append(((i, l + 1), a))
                continue
            inv = QI1 / (s - pts[j])
            for m in range(l, 0, -1):
                a = a * inv
                items.append(((j, m), -a))
            items.append(((i, 1), a))
        return _rf(self.poles, tuple(q), _sorted_sum(items))

    def differentiate(self) -> "RationalFunction":
        return _rf(self.poles,
                   tuple(self.poly[j] * j for j in range(1, len(self.poly))),
                   tuple(((i, k + 1), c * -k) for (i, k), c in self.principal))

    def antiderivative(self) -> "RationalFunction":
        """Termwise antiderivative with zero integration constant.

        Defined only when no simple pole is present (the residue obstruction);
        (z-s)^(-k) maps to (z-s)^(1-k)/(1-k) for k >= 2.
        """
        for (i, k), c in self.principal:
            if k == 1:
                raise DomainError(
                    f"residue at {self.poles.label(i)} obstructs integration")
        poly = (QI0,) + tuple(c / (j + 1) for j, c in enumerate(self.poly))
        return _rf(self.poles, poly if self.poly else (),
                   tuple(((i, k - 1), c / (1 - k)) for (i, k), c in self.principal))

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
        val = QI0
        for c in reversed(self.poly):
            val = val * z + c
        for (i, k), c in self.principal:
            dz = z - self.poles.points[i]
            if dz.is_zero:
                raise DomainError(f"evaluation at the pole {self.poles.label(i)}")
            val = val + c / math.prod((dz,) * k, start=QI1)
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
        return {"poly": [exact_str(c) for c in self.poly],
                "principal": [{"pole": self.poles.label(i), "order": k,
                               "coeff": exact_str(c)}
                              for (i, k), c in self.principal]}

    @classmethod
    def from_json(cls, ps: PoleSet, obj) -> "RationalFunction":
        """Read a payload; a pole order above the largest series order the
        array cap admits (a letter matrix of 16 (k + 1)^2 bytes, as in
        ``expand_at``) is refused before any arithmetic."""
        from .iterint import check_budget

        poly, principal = obj.get("poly", []), obj.get("principal", [])
        if type(poly) is not list or type(principal) is not list:
            raise InputError("'poly' and 'principal' must be JSON lists")
        pp = []
        for item in principal:
            i, k = ps.index(item["pole"]), item["order"]
            if type(k) is not int:
                raise InputError(f"pole order {k!r} is not an integer")
            check_budget(16 * (max(k, 0) + 1) ** 2, f"pole order {k}")
            pp.append(((i, k), QI.of(item["coeff"])))
        return cls(ps, tuple(QI.of(c) for c in poly), tuple(pp))


def _sorted_sum(items) -> tuple:
    """Principal part items summed by key, zeros dropped, keys sorted."""
    return tuple(sorted(accumulate(items).items()))


def _rf(ps: PoleSet, poly: tuple, principal: tuple) -> RationalFunction:
    """A RationalFunction, unchecked, from parts already in normal form:
    QI coefficients, a trimmed poly, sorted valid keys, no zero entries."""
    # set one by one, not through __dict__, which would build a dict for
    # every instance on top of its inline attribute values
    r = object.__new__(RationalFunction)
    object.__setattr__(r, "poles", ps)
    object.__setattr__(r, "poly", poly)
    object.__setattr__(r, "principal", principal)
    return r


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

    @property
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
    # one pass over the principal part: the simple poles give the residues
    cs, higher = [QI0] * len(ps), []
    for key, c in w.f.principal:
        if key[1] == 1:
            cs[key[0]] = c
        else:
            higher.append((key, c))
    f = _rf(ps, w.f.poly, tuple(higher)).antiderivative()
    if not section.is_standard:
        for i, c in enumerate(cs):
            g = section.corrections[i]
            if not c.is_zero and not g.is_zero:
                f = f - (g - g.constant_term).scale(c)
    # unchecked, as _rf builds functions: one QI per pole by construction
    h = object.__new__(DeRhamClass)
    object.__setattr__(h, "poles", ps)
    object.__setattr__(h, "coeffs", tuple(cs))
    return h, f
