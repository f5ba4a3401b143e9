import copy
import pickle
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from curvelog import (QI, Differential, DomainError, InputError, PoleSet,
                      RationalFunction, Section, ShuffleTensor, dlog,
                      normal_form, parse_exact_complex, tensor_to_json)
from curvelog.scalars import accumulate, exact_str

rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=12)
scalars = st.builds(QI, rationals, rationals)


def test_construction_defaults():
    assert QI().is_zero
    assert QI(3).re == 3 and QI(3).im == 0
    assert QI(Fraction(1, 2), Fraction(-3)).im == -3


def test_of_accepts_many_shapes():
    assert QI.of(2) == QI(2)
    assert QI.of(Fraction(5, 3)) == QI(Fraction(5, 3))
    assert QI.of((1, 2)) == QI(1, 2)
    assert QI.of("1/2") == QI(Fraction(1, 2))
    assert QI.of(QI(1, 1)) == QI(1, 1)
    with pytest.raises(InputError):
        QI.of(1.5)
    with pytest.raises(InputError):
        QI.of((1, 2, 3))


@pytest.mark.parametrize("text,want", [
    ("3/2", QI(Fraction(3, 2))),
    ("-i", QI(0, -1)),
    ("i", QI(0, 1)),
    ("1/2+i", QI(Fraction(1, 2), 1)),
    ("2-3i", QI(2, -3)),
    ("1/2i", QI(0, Fraction(1, 2))),
    ("-2-2i", QI(-2, -2)),
    ("-3/4-5/6i", QI(Fraction(-3, 4), Fraction(-5, 6))),
])
def test_parse_literals(text, want):
    assert parse_exact_complex(text) == want


@pytest.mark.parametrize("bad", ["", "x", "1//2", "1+2j+3"])
def test_parse_rejects_garbage(bad):
    with pytest.raises(InputError):
        parse_exact_complex(bad)


def test_literals_past_the_digit_limit_are_refused_before_expansion():
    # Fraction would build 10**999999 in full before str() of it fails
    with pytest.raises(InputError, match="digits"):
        QI.of("1e999999")
    with pytest.raises(InputError, match="digits"):
        parse_exact_complex("1/2-1e-99999999i")
    limit = sys.get_int_max_str_digits()
    digits = "1" * (limit // 2 + 1)
    for text in (f"1e{limit}", f"-1e{limit}", f"1e-{limit}",
                 f"{digits}.{digits}", f"1/{'7' * (limit + 1)}"):
        with pytest.raises(InputError, match="digits"):
            QI.of(text)
    # one digit less still prints
    for text in (f"1e{limit - 1}", f"-1e{limit - 1}", f"1e-{limit - 1}",
                 f"2.5e{limit - 2}", f"1/{'7' * limit}", f"{'7' * limit}/3"):
        assert len(str(QI.of(text)).lstrip("-")) <= limit + 2


def test_exact_writers_refuse_results_past_the_digit_limit():
    big = QI.of("1e3000") * QI.of("1e3000")
    with pytest.raises(DomainError, match="digits"):
        exact_str(big)
    with pytest.raises(DomainError, match="digits"):
        tensor_to_json(ShuffleTensor.from_word(("a",), big), str)
    assert exact_str(QI.of("1e3000")) == str(QI.of("1e3000"))


def test_arithmetic_examples():
    i = QI(0, 1)
    assert i * i == QI(-1)
    assert (QI(1, 1) * QI(1, -1)) == QI(2)
    assert QI(1) / QI(0, 1) == QI(0, -1)
    assert 1 - QI(Fraction(1, 2)) == QI(Fraction(1, 2))
    with pytest.raises(ZeroDivisionError):
        QI(1) / QI()


def test_complex_and_str():
    z = QI(Fraction(1, 2), Fraction(-1, 4))
    assert complex(z) == 0.5 - 0.25j
    assert str(QI(2)) == "2"
    assert str(QI(0, 1)) == "i"
    assert str(QI(1, -1)) == "1-i"
    assert str(QI(0, Fraction(3, 2))) == "3/2i"


@given(scalars, scalars)
def test_mul_commutes(a, b):
    assert a * b == b * a


@given(scalars, scalars, scalars)
def test_distributive(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(scalars)
def test_division_inverts(a):
    if a.is_zero:
        return
    assert (QI(1) / a) * a == QI(1)
    assert a.conjugate().conjugate() == a


@given(scalars)
def test_parse_round_trip(a):
    assert parse_exact_complex(str(a)) == a


def test_accumulate_sums_by_key_and_drops_zeros():
    out = accumulate([("a", QI(1)), ("b", QI(2)), ("a", QI(-1)),
                      ("c", QI(0)), ("b", QI(0, 1))])
    assert out == {"b": QI(2, 1)}
    assert accumulate([]) == {}


def test_accumulate_updates_in_place():
    acc = {"a": QI(1), "b": QI(3)}
    result = accumulate([("a", QI(-1)), ("c", QI(5))], into=acc)
    assert result is acc
    assert acc == {"b": QI(3), "c": QI(5)}


def test_accumulate_sums_rational_functions():
    ps = PoleSet.of("0,1")
    f = RationalFunction.pole_power(ps, 0, 1)
    g = RationalFunction.coordinate(ps)
    out = accumulate([("u", f), ("v", g), ("u", g), ("v", -g)])
    assert out == {"u": f + g}


# A reference model: the value as a pair of Fractions, with the formatting
# rules of the scalars written out on the pair.
wide = st.fractions(max_denominator=10**20)
pairs = st.tuples(wide, wide)


def pair_str(re, im):
    if im == 0:
        return str(re)
    imag = "i" if im == 1 else "-i" if im == -1 else f"{im}i"
    if re == 0:
        return imag
    return f"{re}{'+' if im > 0 else ''}{imag}"


def matches(q, re, im):
    return (type(q.re) is Fraction and type(q.im) is Fraction
            and (q.re, q.im) == (re, im) and q == QI(re, im))


@given(pairs, pairs)
def test_arithmetic_matches_the_fraction_pair_model(x, y):
    (a, b), (c, d) = x, y
    p, q = QI(a, b), QI(c, d)
    assert matches(p + q, a + c, b + d)
    assert matches(p - q, a - c, b - d)
    assert matches(p * q, a * c - b * d, a * d + b * c)
    assert matches(-p, -a, -b)
    assert matches(p.conjugate(), a, -b)
    n = c * c + d * d
    if n == 0:
        with pytest.raises(ZeroDivisionError):
            p / q
    else:
        assert matches(p / q, (a * c + b * d) / n, (b * c - a * d) / n)
    assert p.is_zero == (a == 0 and b == 0)
    assert p.is_real == (b == 0)


@given(pairs, wide, st.integers(-10**6, 10**6))
def test_mixed_operands_match_the_model(x, r, k):
    a, b = x
    p = QI(a, b)
    assert matches(p + k, a + k, b)
    assert matches(k - p, k - a, -b)
    assert matches(p * r, a * r, b * r)
    if r:
        assert matches(p / r, a / r, b / r)
    if a or b:
        n = a * a + b * b
        assert matches(k / p, k * a / n, -k * b / n)


@given(pairs)
def test_boundary_outputs_match_the_model(x):
    a, b = x
    q = QI(a, b)
    z = complex(q)
    want = complex(float(a), float(b))
    assert (z.real.hex(), z.imag.hex()) == (want.real.hex(), want.imag.hex())
    assert str(q) == repr(q) == pair_str(a, b)
    assert q.sort_key() == (a, b)
    assert all(type(part) is Fraction for part in q.sort_key())
    t = ShuffleTensor.from_word(("x",), q)
    want_terms = [] if q.is_zero else [
        {"word": ["x"], "coeff": {"re": str(a), "im": str(b)}}]
    assert tensor_to_json(t, str) == {"terms": want_terms}


def test_equal_values_hash_alike_across_spellings():
    half = [QI(Fraction(2, 4)), QI.of("1/2"), QI(1) / 2,
            QI.of(Fraction(1, 2)), QI.of((Fraction(1, 2), 0)), QI("2/4", 0)]
    assert all(q == half[0] for q in half)
    assert len({hash(q) for q in half}) == 1
    assert len({QI(0, 2) / 4, QI.of("1/2i"), QI(0, 1) * QI(Fraction(1, 2))}) == 1
    assert QI(3) - QI(3) == QI() and hash(QI(3) - QI(3)) == hash(QI())


def test_scalars_are_immutable():
    q = QI(1, 2)
    for name in ("re", "im", "_abd", "other"):
        with pytest.raises(AttributeError):
            setattr(q, name, 5)
    with pytest.raises(AttributeError):
        del q._abd
    assert q == QI(1, 2)


def test_scalars_never_equal_plain_numbers():
    assert (QI(1) == 1) is False
    assert (QI(Fraction(1, 2)) == Fraction(1, 2)) is False
    assert QI(1) != 1


def _copies(value):
    return (copy.copy(value), copy.deepcopy(value),
            pickle.loads(pickle.dumps(value)))


def _build_values():
    ps = PoleSet.of("0,1,1/2+i")
    q = QI(Fraction(-3, 4), Fraction(5, 6))
    f = (RationalFunction(ps, (q, QI(2)), (((2, 2), q),))
         + RationalFunction.pole_power(ps, "0", 1, QI(0, 1)))
    t = (ShuffleTensor.from_word((dlog(ps, "0"), dlog(ps, "1")), q)
         + ShuffleTensor.from_word((dlog(ps, "1/2+i"),), 3))
    nf = normal_form(t, Section.standard(ps), QI(2, 2))
    return ps, q, f, t, nf


def test_copies_and_pickles_round_trip():
    ps, q, f, t, nf = _build_values()
    for value in (q, QI(), f, t, nf):
        for clone in _copies(value):
            assert type(clone) is type(value)
            assert clone == value
            assert str(clone) == str(value)
    assert hash(pickle.loads(pickle.dumps(q))) == hash(q)
    assert copy.deepcopy(f).to_json() == f.to_json()

    # a hash cached before copying is left out of every copy, which hashes
    # like a freshly built instance
    fresh_ps, _, fresh_f, _, fresh_nf = _build_values()
    pairs = ((ps, fresh_ps), (f, fresh_f), (Differential(f), Differential(fresh_f)),
             (nf, fresh_nf))
    for value, fresh in pairs:
        hash(value)
        # only a shallow copy of a normal form shares its coefficients
        for clone in _copies(value)[1 if value is nf else 0:]:
            parts = [g for _, g in clone.terms] if value is nf else [clone]
            assert parts and all("_hash" not in vars(p) for p in parts)
        for clone in _copies(value):
            assert clone == fresh and hash(clone) == hash(fresh)
            assert repr(clone) == repr(fresh)
