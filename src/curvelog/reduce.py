"""Exact reduction of differential words to function-times-class form.

Any word of differentials integrates to a function-linear combination of
class-word integrals.  The reduction decomposes every letter against the
section, then eliminates exact letters by three weight-decreasing rewrites
(leading, interior, trailing), all in exact arithmetic.  On top of that sit
the kernel generators, the membership test, and the splitting of a tensor
into a canonical complement plus a kernel part.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product

from .curve_genus0 import (Differential, PoleSet, RationalFunction, Section,
                           decompose)
from .errors import DomainError, InputError
from .iterint import IntegratorConfig, Path, integrate_h_words, plan_path
from .scalars import QI
from .shuffle_core import ShuffleTensor, word_label, word_sort_key


@dataclass(frozen=True)
class _ExactLetter:
    """Internal letter standing for the exact differential of a function."""

    f: RationalFunction

    @property
    def label(self) -> str:
        return f"d({self.f})"


def default_basepoint(ps: PoleSet) -> QI:
    """A deterministic rational basepoint away from every puncture: the
    winner of a small grid search on maximal distance to the pole set."""
    halves = [Fraction(n, 2) for n in range(-4, 5)]
    best = None
    for re2, im2 in product(halves, repeat=2):
        cand = QI(re2, im2)
        score = min((abs(complex(cand) - p) for p in ps.as_complex),
                    default=1.0)
        if score <= 0:
            continue
        key = (-score, abs(complex(cand)), cand.sort_key())
        if best is None or key < best[0]:
            best = (key, cand)
    if best is None:
        raise DomainError("no grid point clears the pole set")
    return best[1]


@dataclass(frozen=True)
class NormalForm:
    """A finite sum of function-coefficient class words, with its basepoint.

    Represents z mapsto sum f_i(z) * (integral of the section word u_i from
    the basepoint); the representation with distinct words and nonzero
    coefficients is unique.
    """

    poles: PoleSet
    section: Section
    basepoint: QI
    terms: tuple  # pairs (word of labels, RationalFunction), sorted

    def __post_init__(self):
        seen = set()
        cleaned = []
        for w, f in self.terms:
            w = tuple(w)
            if w in seen:
                raise DomainError("normal form with a repeated word")
            seen.add(w)
            if not isinstance(f, RationalFunction) or f.poles != self.poles:
                raise DomainError("coefficients must live over the pole set")
            if not f.is_zero:
                cleaned.append((w, f))
        cleaned.sort(key=lambda wf: word_sort_key(wf[0]))
        object.__setattr__(self, "terms", tuple(cleaned))

    @cached_property
    def terms_map(self) -> dict:
        return dict(self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def weight(self) -> int:
        return max((len(w) for w, _ in self.terms), default=0)

    def coefficient(self, word) -> RationalFunction:
        return self.terms_map.get(tuple(word), RationalFunction.zero(self.poles))

    def evaluate(self, z: complex, path: Path | None = None,
                 cfg: IntegratorConfig | None = None) -> complex:
        """Numeric value: coefficients at z times class-word integrals from
        the basepoint, along the given path or a planned one."""
        z = complex(z)
        if self.is_zero:
            return 0j
        x0 = complex(self.basepoint)
        if path is None:
            path = plan_path(x0, z, self.poles)
        else:
            if abs(path.base - x0) > 1e-9 * max(1.0, abs(x0)):
                raise DomainError("path must start at the basepoint")
            if abs(path.end - z) > 1e-9 * max(1.0, abs(z)):
                raise DomainError("path must end at the evaluation point")
        words = [w for w, _ in self.terms]
        vals, _ = integrate_h_words(path, words, self.section, cfg)
        acc = 0j
        for w, f in self.terms:
            acc += f.evaluate(z) * vals[w]
        return acc

    def __str__(self):
        if self.is_zero:
            return "0"
        return " + ".join(f"({f})*I{word_label(w)}" for w, f in self.terms)

    def to_json(self):
        obj = {
            "poles": self.poles.to_json(),
            "basepoint": str(self.basepoint),
            "terms": [{"word": list(w), "f": f.to_json()}
                      for w, f in self.terms],
        }
        if not self.section.is_standard:
            obj["section"] = [g.to_json() for g in self.section.corrections]
        return obj

    @classmethod
    def from_json(cls, obj) -> "NormalForm":
        try:
            ps = PoleSet.of(obj["poles"])
            x0 = QI.of(obj["basepoint"])
            if "section" in obj:
                section = Section(ps, tuple(
                    RationalFunction.from_json(ps, g) for g in obj["section"]))
            else:
                section = Section.standard(ps)
            terms = tuple(
                (tuple(item["word"]), RationalFunction.from_json(ps, item["f"]))
                for item in obj["terms"])
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed normal form payload: {exc}") from exc
        return cls(ps, section, x0, terms)


def _as_omega_tensor(t, ps: PoleSet | None = None) -> ShuffleTensor:
    if isinstance(t, ShuffleTensor):
        return t
    if isinstance(t, Differential):
        return ShuffleTensor.from_word((t,))
    # an iterable of differentials is taken as a single word
    word = tuple(t)
    for letter in word:
        if not isinstance(letter, Differential):
            raise DomainError(f"not a differential letter: {letter!r}")
    return ShuffleTensor.from_word(word)


def _letter_pieces(w: Differential, section: Section):
    """Decompose one differential letter into section letters plus at most
    one exact letter; returns pairs (letter, exact coefficient)."""
    h, f = decompose(w, section)
    pieces = [(section.poles.label(i), c) for i, c in h.nonzero()]
    if not f.is_zero:
        pieces.append((_ExactLetter(f), QI.of(1)))
    return pieces


def _check_basepoint(ps: PoleSet, x0) -> QI:
    x0 = QI.of(x0)
    for p in ps.points:
        if p == x0:
            raise DomainError("basepoint coincides with a puncture")
    return x0


def normal_form(t, section: Section, x0=None) -> NormalForm:
    """Rewrite a tensor of differential words into the canonical
    function-times-class-word form.

    Every letter splits as section representative plus exact part; exact
    letters are then removed left to right.  A lone exact letter integrates
    directly; a leading one moves its function onto the next letter minus a
    basepoint correction; an interior or trailing one moves the function
    onto a neighbor, and a trailing one additionally emits the function as
    an output coefficient.  Each step shortens the word, so the rewriting
    terminates.
    """
    ps = section.poles
    x0 = default_basepoint(ps) if x0 is None else _check_basepoint(ps, x0)
    t = _as_omega_tensor(t)

    # expand each differential letter once
    queue: list = []
    for word, coeff in t.terms.items():
        expanded = [(tuple(), RationalFunction.const(ps, coeff))]
        for letter in word:
            if not isinstance(letter, Differential):
                raise DomainError(f"not a differential letter: {letter!r}")
            if letter.poles != ps:
                raise DomainError("letter declared over a different pole set")
            pieces = _letter_pieces(letter, section)
            expanded = [(w + (piece,), g.scale(c))
                        for w, g in expanded for piece, c in pieces]
        queue.extend(expanded)

    out: dict = {}

    def emit(word, g: RationalFunction):
        if g.is_zero:
            return
        prev = out.get(word)
        total = g if prev is None else prev + g
        if total.is_zero:
            out.pop(word, None)
        else:
            out[word] = total

    def push_product(prefix, base_letter, f: RationalFunction, suffix,
                     g: RationalFunction):
        """Queue the word with base_letter replaced by f times its form."""
        if isinstance(base_letter, _ExactLetter):
            form = base_letter.f.differentiate()
        else:
            form = section.form(base_letter).f
        prod = form * f
        if prod.is_zero:
            return
        for piece, c in _letter_pieces(Differential(prod), section):
            queue.append((prefix + (piece,) + suffix, g.scale(c)))

    while queue:
        word, g = queue.pop()
        if g.is_zero:
            continue
        pos = next((i for i, letter in enumerate(word)
                    if isinstance(letter, _ExactLetter)), None)
        if pos is None:
            emit(word, g)
            continue
        f = word[pos].f
        L = len(word)
        if L == 1:
            c0 = f.evaluate_exact(x0)
            emit((), g * (f - RationalFunction.const(ps, c0)))
        elif pos == L - 1:
            queue.append((word[:-1], g * f))
            push_product(word[:L - 2], word[L - 2], f, (), g.scale(-1))
        elif pos == 0:
            push_product((), word[1], f, word[2:], g)
            queue.append((word[1:], g.scale(-f.evaluate_exact(x0))))
        else:
            push_product(word[:pos], word[pos + 1], f, word[pos + 2:], g)
            push_product(word[:pos - 1], word[pos - 1], f, word[pos + 1:],
                         g.scale(-1))

    terms = tuple((w, f) for w, f in out.items())
    return NormalForm(ps, section, x0, terms)


def _mul_into_first(f: RationalFunction, word):
    """f times a word: multiply f into the first letter's function part."""
    prod = word[0].f * f
    if prod.is_zero:
        return None
    return (Differential(prod),) + word[1:]


def d_map(s, f: RationalFunction, s_prime, x0=None) -> ShuffleTensor:
    """The kernel generator built from a sandwiched exact letter.

    For words u and v this is [u|df|v] - [u|f.v] + [u.f|v], where the dot
    multiplies the function into the adjacent letter and an empty left word
    contributes its basepoint evaluation.  Words acquiring a zero letter
    are dropped.  The result always has identically vanishing iterated
    integrals.
    """
    s = _as_omega_tensor(s)
    s_prime = _as_omega_tensor(s_prime)
    if s_prime.is_zero:
        return ShuffleTensor.zero()
    for word in s_prime.terms:
        if not word:
            raise DomainError("the right factor must lie in the augmentation "
                              "ideal: empty words are not allowed")
    ps = f.poles
    x0 = default_basepoint(ps) if x0 is None else _check_basepoint(ps, x0)
    df = Differential(f.differentiate())
    out: dict = {}

    def add(word, c: QI):
        if c.is_zero:
            return
        out[word] = out.get(word, QI.of(0)) + c

    for u, cu in s.terms.items():
        for v, cv in s_prime.terms.items():
            c = cu * cv
            if not df.is_zero:
                add(u + (df,) + v, c)
            fv = _mul_into_first(f, v)
            if fv is not None:
                add(u + fv, -c)
            if u:
                last = u[-1]
                prod = last.f * f
                if not prod.is_zero:
                    add(u[:-1] + (Differential(prod),) + v, c)
            else:
                add(v, c * f.evaluate_exact(x0))
    cleaned = {w: c for w, c in out.items() if not c.is_zero}
    return ShuffleTensor(cleaned)


@dataclass(frozen=True)
class KernelWitness:
    """A tensor known to integrate to zero, with the generators proving it.

    Stores triples (s, f, s_prime) of left tensor, function, nonempty
    right tensor; summing the generator of each triple must reproduce the
    witnessed tensor exactly.
    """

    basepoint: QI
    triples: tuple

    def tensor(self) -> ShuffleTensor:
        acc = ShuffleTensor.zero()
        for s, f, sp in self.triples:
            acc = acc + d_map(s, f, sp, self.basepoint)
        return acc

    def certifies(self, t) -> bool:
        return (self.tensor() - _as_omega_tensor(t)).is_zero


def kernel_member(t, section: Section, x0=None) -> bool:
    """Exact membership test: the tensor integrates to zero identically
    precisely when its normal form vanishes."""
    return normal_form(t, section, x0).is_zero


def decompose_subker(t, section: Section, x0=None):
    """Split a tensor into a canonical representative plus a kernel part.

    The representative is rebuilt from the normal form, top weight first:
    the constant part of each coefficient becomes a plain section word, the
    rest becomes a section word with one trailing exact letter.  What the
    rebuilt pieces overshoot is strictly lower in the termination order, so
    the loop bottoms out; the leftover difference integrates to zero.
    """
    ps = section.poles
    x0 = default_basepoint(ps) if x0 is None else _check_basepoint(ps, x0)
    t = _as_omega_tensor(t)
    sub = ShuffleTensor.zero()
    acc = dict(normal_form(t, section, x0).terms)
    while acc:
        u = max(acc, key=word_sort_key)
        f = acc[u]
        c = f.constant_term
        fp = f - RationalFunction.const(ps, c)
        if not u and not fp.is_zero:
            # a lone trailing-exact word integrates to fp - fp(x0), so the
            # basepoint value moves into the constant piece
            c = c + fp.evaluate_exact(x0)
        pieces = []
        if not c.is_zero:
            pieces.append(ShuffleTensor.from_word(section.word(u), c))
        if not fp.is_zero:
            word = section.word(u) + (Differential(fp.differentiate()),)
            pieces.append(ShuffleTensor.from_word(word))
        # subtracting the full normal form of each piece leaves at most a
        # constant residue at u (swept on the next visit) and corrections
        # that are lower in the (weight, nonconstant coefficient) order
        for piece in pieces:
            sub = sub + piece
            for w, g in normal_form(piece, section, x0).terms:
                total = acc.get(w, RationalFunction.zero(ps)) - g
                if total.is_zero:
                    acc.pop(w, None)
                else:
                    acc[w] = total
    ker = t - sub
    return sub, ker
