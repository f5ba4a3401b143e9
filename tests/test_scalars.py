from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from curvelog import (QI, InputError, PoleSet, RationalFunction,
                      parse_exact_complex)
from curvelog.scalars import accumulate

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
