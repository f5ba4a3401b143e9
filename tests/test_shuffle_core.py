import time
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from curvelog import (
    QI,
    AlphabetError,
    ShuffleTensor,
    antipode,
    coradical_member,
    dlog,
    PoleSet,
    r_xi,
    regularize,
    shuffle,
    shuffle_words,
    tensor_from_json,
    tensor_to_json,
    word_label,
    word_sort_key,
)

from series_checks import reassemble

letters = st.sampled_from(["a", "b", "c"])
words = st.lists(letters, max_size=3).map(tuple)
coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=6).map(QI)
tensors = st.dictionaries(words, coeffs, max_size=3).map(ShuffleTensor)


def tiny(t: ShuffleTensor) -> ShuffleTensor:
    """Cap the weight so shuffles of two random tensors stay cheap."""
    return t.homogeneous(0) + t.homogeneous(1) + t.homogeneous(2)


def test_shuffle_words_basics():
    assert shuffle_words(("a",), ("b",)) == {("a", "b"): 1, ("b", "a"): 1}
    assert shuffle_words(("a",), ("a",)) == {("a", "a"): 2}
    assert shuffle_words((), ("a", "b")) == {("a", "b"): 1}
    assert shuffle_words(("a", "b"), ("c",)) == {
        ("c", "a", "b"): 1, ("a", "c", "b"): 1, ("a", "b", "c"): 1}


def enumerated_shuffle(u, v):
    """The former shuffle_words: count every one of the C(m+n, m)
    interleavings, kept as the reference for the suffix-pair table."""
    u, v = tuple(u), tuple(v)
    if not u:
        return {v: 1}
    if not v:
        return {u: 1}
    n, total = len(u), len(u) + len(v)
    acc: dict = {}
    for spots in combinations(range(total), n):
        word = []
        ui = vi = 0
        spotset = set(spots)
        for k in range(total):
            if k in spotset:
                word.append(u[ui])
                ui += 1
            else:
                word.append(v[vi])
                vi += 1
        key = tuple(word)
        acc[key] = acc.get(key, 0) + 1
    return acc


short_words = st.lists(letters, max_size=5).map(tuple)


@given(short_words, short_words)
def test_shuffle_words_matches_the_enumeration(u, v):
    assert shuffle_words(u, v) == enumerated_shuffle(u, v)


def test_shuffle_of_repeated_letters_is_prompt():
    # C(22, 11) = 705432 interleavings, all equal to one word
    start = time.perf_counter()
    assert shuffle_words(("0",) * 11, ("0",) * 11) == {("0",) * 22: 705432}
    assert time.perf_counter() - start < 1.0


def test_reassembling_a_long_regularized_word_is_prompt():
    ps = PoleSet.of("0,1")
    word = ("0",) * 8 + ("1",) + ("0",) * 8
    start = time.perf_counter()
    assert reassemble(regularize(word, ps), ps) == ShuffleTensor.from_word(word)
    assert time.perf_counter() - start < 1.0


def test_tensor_container_behavior():
    t = ShuffleTensor({("a",): 2, ("b", "a"): QI(Fraction(1, 2))})
    assert t.coeff(("a",)) == QI(2)
    assert t.coeff(("z",)).is_zero
    assert t.weight == 2
    assert t.support() == [("a",), ("b", "a")]
    assert t.homogeneous(1).support() == [("a",)]
    assert (t - t).is_zero
    assert (2 * t).coeff(("b", "a")) == QI(1)
    assert ShuffleTensor.unit().counit() == QI(1)
    # zero coefficients are never stored
    assert ShuffleTensor({("a",): 0}).is_zero


def test_word_helpers():
    assert word_label(("a", "b")) == "[a|b]"
    assert word_label(()) == "[]"
    assert word_sort_key(("b",)) < word_sort_key(("a", "a"))
    assert word_sort_key(("a", "b")) < word_sort_key(("b", "a"))


def test_alphabet_mixing_is_rejected():
    # the same label over two pole sets: letters of different alphabets
    one = dlog(PoleSet.of("0,1"), "0")
    two = dlog(PoleSet.of("0,2"), "0")
    a = ShuffleTensor.from_word((one,))
    b = ShuffleTensor.from_word((two,))
    with pytest.raises(AlphabetError):
        shuffle(a, b)
    with pytest.raises(AlphabetError):
        ShuffleTensor.from_word((one, two))


def test_a_cancelling_mixed_word_is_still_rejected():
    word = (dlog(PoleSet.of("0,1"), "1"), dlog(PoleSet.of("0,2"), "2"))
    with pytest.raises(AlphabetError):
        ShuffleTensor([(word, 1), (word, -1)])


def test_antipode_reverses_with_sign():
    t = ShuffleTensor.from_word(("a", "b", "c"))
    assert antipode(t) == ShuffleTensor.from_word(("c", "b", "a"), -1)
    assert antipode(ShuffleTensor.unit()) == ShuffleTensor.unit()


def test_deriv_right_and_contraction():
    t = ShuffleTensor.from_word(("a", "b"), 3)
    picked = r_xi(t, lambda letter: 1 if letter == "b" else 0)
    assert picked == ShuffleTensor.from_word(("a",), 3)
    assert r_xi(t, lambda letter: 0).is_zero


@pytest.mark.parametrize("word", [
    (), ("a",), ("a", "b"), ("a", "a", "b"), ("b", "a", "b", "a")])
def test_coradical_degree_of_a_word_is_its_length(word):
    t = ShuffleTensor.from_word(word)
    n = len(word)
    assert coradical_member(t, n)
    # for the empty word, degree -1, which holds only zero
    assert not coradical_member(t, n - 1)


def test_coradical_sees_cancellation():
    # [a|b] + [b|a] is a product of two degree-one elements minus nothing:
    # its reduced two-part cuts do not cancel, but the commutator does.
    sym = ShuffleTensor({("a", "b"): 1, ("b", "a"): 1})
    com = ShuffleTensor({("a", "b"): 1, ("b", "a"): -1})
    assert not coradical_member(sym, 1)
    assert not coradical_member(com, 1)
    assert coradical_member(sym - sym, 0)
    assert coradical_member(sym - sym, -1)
    assert repr(sym - sym) == "0"


def test_json_round_trip():
    t = ShuffleTensor({("a",): QI(Fraction(1, 2), Fraction(-2, 3)),
                       ("a", "b"): 2})
    blob = tensor_to_json(t, str)
    back = tensor_from_json(blob, str)
    assert back == t
    assert blob["terms"][0]["coeff"]["re"] == "1/2"


@given(tensors, tensors)
def test_shuffle_commutes(a, b):
    a, b = tiny(a), tiny(b)
    assert shuffle(a, b) == shuffle(b, a)


@given(tensors, tensors, tensors)
def test_shuffle_associates(a, b, c):
    a, b, c = tiny(a), tiny(b), tiny(c)
    assert shuffle(shuffle(a, b), c) == shuffle(a, shuffle(b, c))


@given(tensors)
def test_unit_is_neutral(a):
    assert shuffle(a, ShuffleTensor.unit()) == a


@given(tensors, tensors)
def test_counit_is_multiplicative(a, b):
    a, b = tiny(a), tiny(b)
    assert shuffle(a, b).counit() == a.counit() * b.counit()


@given(tensors)
def test_antipode_convolution_identity(a):
    acc = ShuffleTensor.zero(a.alphabet)
    for w, c in a.terms.items():
        for k in range(len(w) + 1):
            acc = acc + shuffle(antipode(ShuffleTensor.from_word(w[:k])),
                                ShuffleTensor.from_word(w[k:])).scale(c)
    assert acc == ShuffleTensor.unit().scale(a.counit())


@given(tensors, tensors)
def test_contraction_is_a_shuffle_derivation(a, b):
    a, b = tiny(a), tiny(b)
    xi = lambda letter: 2 if letter == "a" else (1 if letter == "b" else 0)
    lhs = r_xi(shuffle(a, b), xi)
    rhs = shuffle(r_xi(a, xi), b) + shuffle(a, r_xi(b, xi))
    assert lhs == rhs


def test_a_tensor_times_a_tensor_shuffles_and_times_a_scalar_scales():
    a = ShuffleTensor.from_word(("a", "b"), QI(2))
    b = ShuffleTensor.from_word(("c",), QI(0, 1))
    assert a * b == shuffle(a, b)
    assert a * QI(3, -1) == a.scale(QI(3, -1))
    assert a * Fraction(1, 2) == a.scale(Fraction(1, 2))
