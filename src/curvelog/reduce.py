"""Exact reduction of differential words to function-times-class form.

Any word of differentials integrates to a function-linear combination of
class-word integrals.  The reduction folds each word left to right with the
one operation that generates the algebra, F mapsto integral of F omega: a
form times a function splits against the section into class letters plus an
exact part, and the exact part is integrated by parts, one letter shorter
each turn, all in exact arithmetic.  On top of that sit the kernel
generators, the membership test, and the splitting of a tensor into a
canonical complement plus a kernel part.
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
from .scalars import QI, accumulate, exact_str
from .shuffle_core import (ShuffleTensor, _letter_label, r_xi, word_label,
                           word_sort_key)


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
            "basepoint": exact_str(self.basepoint),
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


def _as_omega_tensor(t) -> ShuffleTensor:
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


def _check_basepoint(ps: PoleSet, x0) -> QI:
    x0 = QI.of(x0)
    for p in ps.points:
        if p == x0:
            raise DomainError("basepoint coincides with a puncture")
    return x0


def _integrate_term(u: tuple, f: RationalFunction, section: Section, x0: QI,
                    out: list):
    """Append the normal form of the integral from x0 of I(u) f dz to out.

    Split f dz as sum c_i sigma_i + dg: the class part extends the word, and
    by parts I(u) dg integrates to I(u) g minus the integral of
    I(u') g sigma_last, where u = u' last.  Each turn shortens u; the empty
    word integrates dg to g - g(x0)."""
    while not f.is_zero:
        h, g = decompose(Differential(f), section)
        for i, c in h.nonzero():
            out.append((u + (section.poles.label(i),),
                        RationalFunction.const(section.poles, c)))
        if g.is_zero:
            return
        if not u:
            out.append(((), g - g.evaluate_exact(x0)))
            return
        out.append((u, g))
        f = -(g * section.form(u[-1]).f)
        u = u[:-1]


def normal_form(t, section: Section, x0=None) -> NormalForm:
    """Rewrite a tensor of differential words into the canonical
    function-times-class-word form.

    The iterated integral of w omega is the integral of I(w) omega, so each
    word is a left fold over its letters: it starts as its coefficient on
    the empty class word, and each letter omega replaces every running term
    f I(u) by the normal form of the integral of f I(u) omega.  The fold is
    linear, so words that end in a common tail share it: the words are read
    backwards into a trie whose nodes are suffixes, each node sums the
    running terms of every word that reaches it and passes them through its
    first letter into its parent once, and the root, the empty suffix,
    holds the result.
    """
    ps = section.poles
    x0 = default_basepoint(ps) if x0 is None else _check_basepoint(ps, x0)
    # node 0 is the empty suffix; a node's parent is created before it, so
    # walking the nodes backwards folds every child before its parent
    parent, letters, running = [0], [None], [{}]
    edges: dict = {}
    for word, coeff in _as_omega_tensor(t).terms.items():
        node = 0
        for letter in reversed(word):
            if not isinstance(letter, Differential):
                raise DomainError(f"not a differential letter: {letter!r}")
            if letter.poles != ps:
                raise DomainError("letter declared over a different pole set")
            child = edges.get((node, letter))
            if child is None:
                child = edges[node, letter] = len(parent)
                parent.append(node)
                letters.append(letter)
                running.append({})
            node = child
        running[node][()] = RationalFunction.const(ps, coeff)
    for node in range(len(parent) - 1, 0, -1):
        terms: list = []
        g = letters[node].f
        for u, f in running[node].items():
            _integrate_term(u, f * g, section, x0, terms)
        running[node] = None
        accumulate(terms, running[parent[node]])
    return NormalForm(ps, section, x0, tuple(running[0].items()))


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
    out: list = []
    for u, cu in s.terms.items():
        for v, cv in s_prime.terms.items():
            c = cu * cv
            if not df.is_zero:
                out.append((u + (df,) + v, c))
            fv = _mul_into_first(f, v)
            if fv is not None:
                out.append((u + fv, -c))
            if u:
                last = u[-1]
                prod = last.f * f
                if not prod.is_zero:
                    out.append((u[:-1] + (Differential(prod),) + v, c))
            else:
                out.append((v, c * f.evaluate_exact(x0)))
    return ShuffleTensor(out)


def nabla_sigma(a: ShuffleTensor, f: RationalFunction, section: Section):
    """Covariant derivative of the pair (class tensor, coefficient function).

    Returns summands (tensor, one-form): the exterior derivative of f against
    the unchanged tensor, plus, for each puncture, the last-letter contraction
    of the tensor against the section form multiplied by f.
    """
    out = []
    df = f.differentiate()
    if not a.is_zero and not df.is_zero:
        out.append((a, Differential(df)))
    ps = section.poles
    for i, lab in enumerate(ps.labels):
        contracted = r_xi(a, lambda letter, lab=lab:
                          1 if _letter_label(letter) == lab else 0)
        if contracted.is_zero:
            continue
        out.append((contracted, Differential(section.form(i).f * f)))
    return out


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
    sub_terms: list = []
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
            pieces.append((section.word(u), c))
        if not fp.is_zero:
            pieces.append(
                (section.word(u) + (Differential(fp.differentiate()),), 1))
        # subtracting the full normal form of each piece leaves at most a
        # constant residue at u (swept on the next visit) and corrections
        # that are lower in the (weight, nonconstant coefficient) order
        for piece in pieces:
            sub_terms.append(piece)
            accumulate(((w, -g) for w, g in normal_form(
                ShuffleTensor((piece,)), section, x0).terms), acc)
    sub = ShuffleTensor(sub_terms)
    ker = t - sub
    return sub, ker
