"""Exact reduction of differential words to function-times-class form.

Any word of differentials integrates to a function-linear combination of
class-word integrals.  The reduction folds each word left to right with the
one operation that generates the algebra, F mapsto integral of F omega: a
form times a function splits against the section into class letters plus an
exact part, and the exact part is integrated by parts, one letter shorter
each turn, all in exact arithmetic.  On top of that sit the kernel
generators, the membership test, and the splitting of a tensor into a
canonical complement plus a kernel part.  All of it is exact: only
``NormalForm.evaluate`` integrates, and it loads the numeric layer itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product

from .curve_genus0 import (_Z, Differential, PoleSet, RationalFunction,
                           Section, _pole_ints, _rf, _section_vectors, _split,
                           _vconst, _veval, _vmul, _vtotal, d)
from .errors import DomainError, InputError
from .scalars import QI, _make, accumulate, exact_str
from .shuffle_core import (ShuffleTensor, _letter_label, r_xi, word_label,
                           word_sort_key)

_ONE = QI.of(1)


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

    def evaluate(self, z: complex, path=None, cfg=None) -> complex:
        """Numeric value: coefficients at z times class-word integrals from
        the basepoint, along the given ``iterint.Path`` or a planned one,
        under an ``iterint.IntegratorConfig`` or the default."""
        from .iterint import glued, integrate_h_words, plan_path
        z = complex(z)
        if self.is_zero:
            return 0j
        x0 = complex(self.basepoint)
        if path is None:
            path = plan_path(x0, z, self.poles)
        elif not (glued(x0, path.base) and glued(z, path.end)):
            raise DomainError("path must run from the basepoint to the "
                              "evaluation point")
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
            if not all(type(item["word"]) is list and set(ps.labels)
                       .issuperset(item["word"]) for item in obj["terms"]):
                raise ValueError("a word names no class of the pole set")
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


def _integrate_term(u: tuple, f: tuple, into: dict, fold: tuple):
    """Add to into, by class word, the normal form of the integral from x0
    of I(u) f dz, f an int vector; fold holds the pole set, x0 and the
    kernel data of the pole set and the section.

    Split f dz as sum c_i sigma_i + dg: the class part extends the word, and
    by parts I(u) dg integrates to I(u) g minus the integral of
    I(u') g sigma_last, where u = u' last (the next split takes the minus).
    Each turn shortens u; the empty word integrates dg to g - g(x0)."""
    (ps, x0, pts, corrections, forms), sign = fold, 1
    while f[1] or f[2]:
        res, g = _split(f, corrections, sign)
        for i, (a, b) in res.items():
            into.setdefault(u + (ps.labels[i],), []).append(
                _vconst(a, b, f[0]))
        if not g[1] and not g[2]:
            return
        if not u:
            a, b, d = _veval(g, x0, ps)
            into.setdefault((), []).extend((g, _vconst(-a, -b, d)))
            return
        into.setdefault(u, []).append(g)
        f, u, sign = _vmul(g, forms[u[-1]], pts), u[:-1], -1


def _fold(t, section: Section, x0) -> tuple:
    """normal_form's trie walk: the root's running parts, lists of int
    vectors by class word, and the fold data that _integrate_term reads."""
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
            if letter.poles is not ps and letter.poles != ps:
                raise DomainError("letter declared over a different pole set")
            child = edges.get((node, letter))
            if child is None:
                child = edges[node, letter] = len(parent)
                parent.append(node)
                letters.append(letter.f.vec)
                running.append({})
            node = child
        running[node][()] = [_vconst(*coeff._abd)]
    pts = _pole_ints(ps)
    fold = (ps, x0, pts, *_section_vectors(section))
    for node in range(len(parent) - 1, 0, -1):
        into, g = running[parent[node]], letters[node]
        for u, parts in running[node].items():
            _integrate_term(u, _vmul(_vtotal(parts), g, pts), into, fold)
        running[node] = None
    return running[0], fold


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
    holds the result.  The running terms are curve_genus0's int vectors,
    the letters' own and the coefficients' as constants, made functions
    again at the root.
    """
    root, (ps, x0, *_) = _fold(t, section, x0)
    # NormalForm drops the words whose coefficients sum to zero
    return NormalForm(ps, section, x0, tuple(
        (u, _rf(ps, _vtotal(parts))) for u, parts in root.items()))


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
    precisely when its normal form vanishes, that is when the parts of
    every class word at the fold's root sum to zero; the first word whose
    sum is not zero decides, and no normal form is built."""
    root, _ = _fold(t, section, x0)
    for parts in root.values():
        _, P, Q = _vtotal(parts)
        if P or Q:
            return False
    return True


def decompose_subker(t, section: Section, x0=None):
    """Split a tensor into a canonical representative plus a kernel part.

    The representative is rebuilt from the normal form, top weight first:
    the coefficient c + fp of I(u), c constant, gives c sigma(u), of normal
    form c I(u), and sigma(u) d(fp), of normal form fp I(u) less the integral
    of I(u') fp sigma_last by parts, u = u' last (fp - fp(x0) when u is
    empty).  The input is folded once and each piece comes off it by that
    chain alone; what it overshoots is a constant residue at u, swept next,
    or lower in the (weight, nonconstant coefficient) order.
    """
    t = _as_omega_tensor(t)
    acc, fold = _fold(t, section, x0)
    ps, x0, pts, _, forms = fold
    pieces: list = []
    keys: dict = {}  # each word's sort key, computed once
    while acc:
        for w in acc.keys() - keys.keys():
            keys[w] = word_sort_key(w)
        u = max(acc, key=keys.__getitem__)
        D, P, Q = _vtotal(acc.pop(u))
        c = _make(*(P[0] if P else _Z), D)
        fp = (D, P[1:] and [_Z, *P[1:]], Q) if P[1:] or Q else None
        if fp and u:
            _integrate_term(u[:-1], _vmul(fp, forms[u[-1]], pts), acc, fold)
        elif fp:
            c = c + _make(*_veval(fp, x0, ps))  # fp(x0) moves into c
        pieces.append((section.word(u), c))  # a zero c is skipped
        if fp:
            pieces.append((section.word(u) + (d(_rf(ps, fp)),), _ONE))
    # the alphabets that ShuffleTensor(pieces) and t - sub would set: every
    # letter is over ps, so sub's is that of a nonzero piece with a letter
    sub = ShuffleTensor._summed(accumulate(pieces), next(
        (w[0].alphabet for w, c in pieces if w and not c.is_zero), None))
    ker = accumulate(((w, -c) for w, c in sub.terms.items()), dict(t.terms))
    return sub, ShuffleTensor._summed(ker, t._join_alphabet(sub))
