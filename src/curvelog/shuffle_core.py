"""Shuffle Hopf algebra over words on a declared alphabet.

Tensors are finite exact-coefficient combinations of words.  The product is
the commutative shuffle, the coproduct is deconcatenation, the antipode
reverses words with an alternating sign, and the length filtration doubles
as the coradical filtration of the coalgebra.
"""

from __future__ import annotations

from itertools import chain, combinations
from types import MappingProxyType
from typing import Callable, Mapping

from .errors import AlphabetError
from .scalars import QI, accumulate, exact_str

# Words are plain tuples.  A letter is any hashable object exposing a string
# ``label`` (used for canonical ordering and display) and, optionally, an
# ``alphabet`` tag used to detect accidental mixing of unrelated alphabets.
Word = tuple


def _letter_label(letter) -> str:
    lab = getattr(letter, "label", None)
    return lab if lab is not None else str(letter)


def _letter_alphabet(letter):
    return getattr(letter, "alphabet", None)


def word_label(word: Word) -> str:
    return "[" + "|".join(_letter_label(l) for l in word) + "]"


def word_sort_key(word: Word):
    return (len(word), tuple(_letter_label(l) for l in word))


class ShuffleTensor:
    """A finite map from words to exact scalars, no zero entries stored."""

    __slots__ = ("_terms", "alphabet")

    def __init__(self, terms=None, alphabet: str | None = None):
        items = []
        if isinstance(terms, Mapping):
            terms = terms.items()
        for word, coeff in terms or ():
            word = tuple(word)
            coeff = QI.of(coeff)
            if coeff.is_zero:
                continue
            # every word is checked before summing, even one that cancels
            for letter in word:
                a = _letter_alphabet(letter)
                if a is None:
                    continue
                if alphabet is None:
                    alphabet = a
                elif a != alphabet:
                    raise AlphabetError(
                        f"letter {_letter_label(letter)!r} belongs to "
                        f"{a!r}, tensor is over {alphabet!r}")
            items.append((word, coeff))
        self._terms = accumulate(items)
        self.alphabet = alphabet

    @classmethod
    def zero(cls, alphabet=None) -> "ShuffleTensor":
        return cls({}, alphabet)

    @classmethod
    def unit(cls, alphabet=None) -> "ShuffleTensor":
        return cls({(): QI.of(1)}, alphabet)

    @classmethod
    def from_word(cls, word, coeff=1, alphabet=None) -> "ShuffleTensor":
        return cls({tuple(word): QI.of(coeff)}, alphabet)

    @classmethod
    def _summed(cls, terms: dict, alphabet=None) -> "ShuffleTensor":
        """A tensor over terms that are summed already: distinct tuple
        words over the alphabet, each with a nonzero QI.  They are taken
        as they are, unchecked."""
        t = cls.__new__(cls)
        t._terms = terms
        t.alphabet = alphabet
        return t

    @property
    def terms(self):
        return MappingProxyType(self._terms)

    def items(self):
        return sorted(self._terms.items(), key=lambda kv: word_sort_key(kv[0]))

    def support(self):
        return sorted(self._terms, key=word_sort_key)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def weight(self) -> int:
        return max((len(w) for w in self._terms), default=0)

    def coeff(self, word) -> QI:
        return self._terms.get(tuple(word), QI.of(0))

    def counit(self) -> QI:
        return self.coeff(())

    def homogeneous(self, n: int) -> "ShuffleTensor":
        return ShuffleTensor({w: c for w, c in self._terms.items() if len(w) == n},
                             self.alphabet)

    def _join_alphabet(self, other) -> str | None:
        a, b = self.alphabet, other.alphabet
        if a is None:
            return b
        if b is None:
            return a
        if a != b:
            raise AlphabetError(f"mixing tensors over {a!r} and {b!r}")
        return a

    def __add__(self, other: "ShuffleTensor") -> "ShuffleTensor":
        alpha = self._join_alphabet(other)
        return ShuffleTensor(chain(self._terms.items(), other._terms.items()),
                             alpha)

    def __neg__(self) -> "ShuffleTensor":
        return ShuffleTensor({w: -c for w, c in self._terms.items()}, self.alphabet)

    def __sub__(self, other: "ShuffleTensor") -> "ShuffleTensor":
        return self + (-other)

    def scale(self, c) -> "ShuffleTensor":
        c = QI.of(c)
        if c.is_zero:
            return ShuffleTensor.zero(self.alphabet)
        return ShuffleTensor({w: v * c for w, v in self._terms.items()}, self.alphabet)

    def __mul__(self, other):
        if isinstance(other, ShuffleTensor):
            return shuffle(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def __eq__(self, other):
        if not isinstance(other, ShuffleTensor):
            return NotImplemented
        return self._terms == other._terms

    __hash__ = None

    def __repr__(self):
        if self.is_zero:
            return "0"
        bits = []
        for w, c in self.items():
            bits.append(f"({c})*{word_label(w)}")
        return " + ".join(bits)


def suffix_shuffles(u: Word, v: Word) -> list:
    """The shuffles of every suffix of u with v: entry k is the map
    word -> integer multiplicity of (the last k letters of u) ш v.

    Filled in over suffix pairs by au ш bv = a(u ш bv) + b(au ш v), merging
    equal words as they form, so the cost follows the distinct output
    rather than the C(m+n, m) interleavings.  The whole-v cell of each row
    is one entry, so one table holds them all.
    """
    u, v = tuple(u), tuple(v)
    # below[j] holds u[i+1:] ш v[j:], starting from the exhausted u
    below = [{v[j:]: 1} for j in range(len(v) + 1)]
    out = [below[0]]
    for i in range(len(u) - 1, -1, -1):
        a = (u[i],)
        row = [None] * len(v) + [{u[i:]: 1}]
        for j in range(len(v) - 1, -1, -1):
            cell = {a + w: c for w, c in below[j].items()}
            b = (v[j],)
            for w, c in row[j + 1].items():
                cell[b + w] = cell.get(b + w, 0) + c
            row[j] = cell
        below = row
        out.append(row[0])
    return out


def shuffle_words(u: Word, v: Word) -> dict:
    """Shuffles of two bare words, as a map word -> integer multiplicity."""
    u, v = tuple(u), tuple(v)
    if not u or not v:
        return {u + v: 1}
    return suffix_shuffles(u, v)[-1]


def shuffle(a: ShuffleTensor, b: ShuffleTensor) -> ShuffleTensor:
    alpha = a._join_alphabet(b)
    return ShuffleTensor(((w, cu * cv * mult)
                          for u, cu in a._terms.items()
                          for v, cv in b._terms.items()
                          for w, mult in shuffle_words(u, v).items()), alpha)


def _pieces(w: Word, cuts) -> tuple:
    """The pieces of a word between the given cut positions."""
    bounds = (0,) + cuts + (len(w),)
    return tuple(w[i:j] for i, j in zip(bounds, bounds[1:]))


def antipode(a: ShuffleTensor) -> ShuffleTensor:
    out = {}
    for w, c in a._terms.items():
        sign = -1 if len(w) % 2 else 1
        out[tuple(reversed(w))] = c * sign
    return ShuffleTensor(out, a.alphabet)


def r_xi(a: ShuffleTensor, xi: Callable) -> ShuffleTensor:
    """Contract the last letter with the functional ``xi`` (letter -> scalar)."""
    return ShuffleTensor(((w[:-1], c * QI.of(xi(w[-1])))
                          for w, c in a._terms.items() if w), a.alphabet)


def coradical_member(t: ShuffleTensor, n: int) -> bool:
    """Exact membership test for coradical degree ``n``.

    The tensor lies in degree n exactly when every (n+1)-fold reduced
    deconcatenation (all parts nonempty) vanishes.  Cuts of distinct words
    are distinct, so the test reduces to checking each word's cuts, but the
    accumulation below keeps the literal definition.
    """
    if n < 0:
        return t.is_zero
    return not accumulate((_pieces(w, cuts), c) for w, c in t._terms.items()
                          if len(w) > n
                          for cuts in combinations(range(1, len(w)), n))


def tensor_to_json(t: ShuffleTensor, encode_letter: Callable) -> dict:
    return {"terms": [{"word": [encode_letter(l) for l in w],
                       "coeff": {"re": exact_str(c.re),
                                 "im": exact_str(c.im)}}
                      for w, c in t.items()]}


def tensor_from_json(obj, decode_letter: Callable) -> ShuffleTensor:
    terms = []
    for item in obj.get("terms", []):
        word = tuple(decode_letter(e) for e in item.get("word", []))
        c = item.get("coeff", {})
        coeff = QI.of((c.get("re", "0"), c.get("im", "0")))
        terms.append((word, coeff))
    return ShuffleTensor(terms)
