"""Exact Gaussian rational scalars.

The symbolic layers keep every coefficient exact, so zero tests and normal
forms are bit-exact.  A scalar (a + b*i)/d is three Python ints in lowest
terms: d > 0 and gcd(a, b, d) = 1, so equal values have equal fields.  Both
parts share the one denominator, as in FLINT's common-denominator
polynomials, and every operation works on the ints and reduces with a
single gcd.  The parts are read back as ``Fraction`` properties, and values
convert to ``complex`` only at the numerical boundary.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import gcd

from .errors import DomainError, InputError


def _frac(x) -> Fraction:
    if type(x) is int:
        return Fraction(x)
    if isinstance(x, Fraction):
        return x
    if isinstance(x, str):
        # Fraction builds 10**exponent in full: bound the digits of the
        # numerator and denominator by the int-to-str limit before it does
        num, _, den = x.strip().lstrip("+-").partition("/")
        mantissa, _, exp = num.lower().partition("e")
        whole, _, part = mantissa.partition(".")
        limit = sys.get_int_max_str_digits()
        try:
            e = int(exp or 0)
            if 0 < limit < max(len(whole) + len(part) + max(e, 0), len(den),
                               len(part) + max(-e, 0) + 1):
                raise InputError(f"rational literal {x!r} has over {limit} "
                                 "digits")
            return Fraction(x.strip())
        except InputError:
            raise
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad rational literal {x!r}") from exc
    raise InputError(f"not an exact rational: {x!r}")


def exact_str(x) -> str:
    """str(x) of an exact scalar, for the JSON writers: a result with a
    part past the int-to-str limit is refused as a DomainError, where str
    would raise a bare ValueError."""
    try:
        return str(x)
    except ValueError as exc:
        raise DomainError(f"an exact result has a part of over "
                          f"{sys.get_int_max_str_digits()} digits") from exc


class QI:
    """A Gaussian rational ``re + im*i`` with exact rational parts."""

    # (a, b, d) with d > 0 and gcd(a, b, d) = 1: the value (a + b*i)/d
    __slots__ = ("_abd",)

    def __init__(self, re=0, im=0):
        re, im = _frac(re), _frac(im)
        p, q = re.numerator, re.denominator
        r, s = im.numerator, im.denominator
        d = q * s // gcd(q, s)
        # with both parts in lowest terms, the lcm leaves no common factor
        _set_abd(self, (p * (d // q), r * (d // s), d))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: QI is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: QI is immutable")

    def __reduce__(self):
        return (QI, (self.re, self.im))

    @staticmethod
    def of(value) -> "QI":
        if type(value) is QI:
            return value
        if type(value) is int:
            return _make(value, 0, 1)
        if isinstance(value, Fraction):
            return _make(value.numerator, 0, value.denominator)
        if isinstance(value, str):
            return parse_exact_complex(value)
        if isinstance(value, tuple) and len(value) == 2:
            return QI(_frac(value[0]), _frac(value[1]))
        raise InputError(f"not an exact complex value: {value!r}")

    @property
    def re(self) -> Fraction:
        a, _, d = self._abd
        return Fraction(a, d)

    @property
    def im(self) -> Fraction:
        _, b, d = self._abd
        return Fraction(b, d)

    def __eq__(self, other):
        if type(other) is not QI:
            return NotImplemented
        return self._abd == other._abd

    def __hash__(self):
        return hash(self._abd)

    def __add__(self, other):
        if type(other) is not QI:
            other = QI.of(other)
        a, b, d = self._abd
        e, f, g = other._abd
        if d == g:
            return _make(a + e, b + f, d)
        return _make(a * g + e * d, b * g + f * d, d * g)

    __radd__ = __add__

    def __neg__(self):
        a, b, d = self._abd
        return _make(-a, -b, d)

    def __sub__(self, other):
        return self + (-QI.of(other))

    def __rsub__(self, other):
        return QI.of(other) + (-self)

    def __mul__(self, other):
        if type(other) is not QI:
            other = QI.of(other)
        a, b, d = self._abd
        e, f, g = other._abd
        return _make(a * e - b * f, a * f + b * e, d * g)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not QI:
            other = QI.of(other)
        a, b, d = self._abd
        e, f, g = other._abd
        n = e * e + f * f
        if n == 0:
            raise ZeroDivisionError("division by zero scalar")
        # (a + bi)/d * g(e - fi)/(e^2 + f^2)
        return _make(g * (a * e + b * f), g * (b * e - a * f), d * n)

    def __rtruediv__(self, other):
        return QI.of(other) / self

    def conjugate(self) -> "QI":
        a, b, d = self._abd
        return _make(a, -b, d)

    @property
    def is_zero(self) -> bool:
        a, b, _ = self._abd
        return a == 0 and b == 0

    @property
    def is_real(self) -> bool:
        return self._abd[1] == 0

    def __bool__(self) -> bool:
        return not self.is_zero

    def __complex__(self) -> complex:
        # int true division, as Fraction.__float__ does: correctly rounded
        # whether or not a/d and b/d are in lowest terms
        a, b, d = self._abd
        return complex(a / d, b / d)

    def sort_key(self):
        return (self.re, self.im)

    def __str__(self):
        re, im = self.re, self.im
        if im == 0:
            return str(re)
        if im == 1:
            imag = "i"
        elif im == -1:
            imag = "-i"
        else:
            imag = f"{im}i"
        if re == 0:
            return imag
        sign = "+" if im > 0 else ""
        return f"{re}{sign}{imag}"

    def __repr__(self):
        return str(self)


_set_abd = QI._abd.__set__
_new = object.__new__


def _make(a: int, b: int, d: int) -> QI:
    """The scalar (a + b*i)/d for d > 0, reduced by one gcd."""
    g = gcd(a, b, d)
    if g != 1:
        a //= g
        b //= g
        d //= g
    q = _new(QI)
    _set_abd(q, (a, b, d))
    return q


IMAG = QI(Fraction(0), Fraction(1))


def accumulate(pairs, into: dict | None = None) -> dict:
    """Sum (key, value) pairs by key, dropping every key whose total is
    zero.  Values need ``+`` and ``.is_zero``; ``into`` is updated in place
    and returned."""
    out = {} if into is None else into
    for key, c in pairs:
        prev = out.get(key)
        total = c if prev is None else prev + c
        if total.is_zero:
            out.pop(key, None)
        else:
            out[key] = total
    return out


def parse_exact_complex(text: str) -> QI:
    """Parse literals like ``3/2``, ``-i``, ``1/2+i``, ``2-3i``, ``1/2i``."""
    t = text.strip().replace(" ", "")
    if not t:
        raise InputError("empty complex literal")
    if t in ("i", "+i"):
        return IMAG
    if t == "-i":
        return QI(Fraction(0), Fraction(-1))
    if not t.endswith(("i", "I")):
        return QI(_frac(t))
    body = t[:-1]
    sep = -1
    for k in range(len(body) - 1, 0, -1):
        if body[k] in "+-" and body[k - 1] not in "/.eE+-":
            sep = k
            break
    if sep < 0:
        real, imag = "", body
    else:
        real, imag = body[:sep], body[sep:]
    if imag in ("", "+"):
        imv = Fraction(1)
    elif imag == "-":
        imv = Fraction(-1)
    else:
        imv = _frac(imag)
    rev = _frac(real) if real else Fraction(0)
    return QI(rev, imv)
