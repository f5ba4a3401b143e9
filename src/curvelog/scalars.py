"""Exact Gaussian rational scalars.

The symbolic layers keep every coefficient as a + b*i with rational a and b,
so zero tests and normal forms are bit-exact.  Values convert to ``complex``
only at the numerical boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad rational literal {x!r}") from exc
    raise InputError(f"not an exact rational: {x!r}")


@dataclass(frozen=True)
class QI:
    """A Gaussian rational ``re + im*i`` with exact ``Fraction`` parts."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "re", _frac(self.re))
        object.__setattr__(self, "im", _frac(self.im))

    @staticmethod
    def of(value) -> "QI":
        if isinstance(value, QI):
            return value
        if isinstance(value, (int, Fraction)):
            return QI(Fraction(value))
        if isinstance(value, str):
            return parse_exact_complex(value)
        if isinstance(value, tuple) and len(value) == 2:
            return QI(_frac(value[0]), _frac(value[1]))
        raise InputError(f"not an exact complex value: {value!r}")

    def __add__(self, other):
        other = QI.of(other)
        return QI(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return QI(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-QI.of(other))

    def __rsub__(self, other):
        return QI.of(other) + (-self)

    def __mul__(self, other):
        other = QI.of(other)
        return QI(self.re * other.re - self.im * other.im,
                  self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = QI.of(other)
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise ZeroDivisionError("division by zero scalar")
        return QI((self.re * other.re + self.im * other.im) / n,
                  (self.im * other.re - self.re * other.im) / n)

    def __rtruediv__(self, other):
        return QI.of(other) / self

    def conjugate(self) -> "QI":
        return QI(self.re, -self.im)

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    @property
    def is_real(self) -> bool:
        return self.im == 0

    def __bool__(self) -> bool:
        return not self.is_zero

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def sort_key(self):
        return (self.re, self.im)

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        if self.im == 1:
            imag = "i"
        elif self.im == -1:
            imag = "-i"
        else:
            imag = f"{self.im}i"
        if self.re == 0:
            return imag
        sign = "+" if self.im > 0 else ""
        return f"{self.re}{sign}{imag}"

    def __repr__(self):
        return str(self)


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
