import cmath
import math
from fractions import Fraction

import pytest

from curvelog import (
    DomainError,
    IntegratorConfig,
    LogLaurentExpansion,
    PoleSet,
    RationalFunction,
    Section,
    eval_L,
    expand_at,
    loop_around,
    monodromy_substitution,
)

PS = PoleSet.of("0,1")
TIGHT = IntegratorConfig(rtol=1e-12, atol=1e-14)


def test_log_at_origin_is_exact():
    exp = expand_at(("0",), PS, 0)
    assert exp.coeffs == {(0, 1): 1.0 + 0j}
    assert exp.log_degree == 1
    assert exp.radius == 0.5


def test_taylor_of_the_convergent_letter():
    exp = expand_at(("1",), PS, 0, order=8)
    assert exp.log_degree == 0
    for j in range(1, 9):
        assert abs(exp.coeff(j, 0) - (-1.0 / j)) < 1e-14
    assert exp.coeff(0, 0) == 0j


def test_weight_two_at_origin():
    # the double zero letter is log^2 z / 2 on the nose
    exp = expand_at(("0", "0"), PS, 0)
    assert exp.coeffs == {(0, 2): 0.5 + 0j}


def test_dilog_word_at_origin():
    # (1,0) integrates the Taylor letter against dz/z: coefficients -1/j^2
    exp = expand_at(("1", "0"), PS, 0, order=10)
    for j in range(1, 11):
        assert abs(exp.coeff(j, 0) - (-1.0 / j ** 2)) < 1e-14


def test_expansion_around_the_far_pole():
    exp = expand_at(("1",), PS, 1, order=16, cfg=TIGHT)
    # log(1-z) = log(x) - i*pi on the branch reached from the left through
    # the lower approach the planner takes around the pole at one
    assert abs(exp.coeff(0, 1) - 1.0) < 1e-10
    assert abs(exp.coeff(0, 0) - (-1j * math.pi)) < 1e-10
    for j in range(1, 5):
        assert abs(exp.coeff(j, 0)) < 1e-10


def test_expansion_values_match_continued_function():
    exp = expand_at(("1", "0"), PS, 1, order=24, cfg=TIGHT)
    z = 1 + 0.1 * cmath.exp(1.2j)
    got = exp.evaluate(z)
    want = eval_L(("1", "0"), z, PS, cfg=TIGHT).value
    assert abs(got - want) < 1e-8
    assert exp.evaluate(z) == got


def test_rational_centers_are_exact_inputs():
    ps = PoleSet.of("0,1,3")
    exp = expand_at(("0",), ps, Fraction(3, 2), order=12, cfg=TIGHT)
    assert exp.center == 1.5
    assert exp.radius == 0.25
    z = 1.5 + 0.1j
    assert abs(exp.evaluate(z) - eval_L(("0",), z, ps, cfg=TIGHT).value) < 1e-8


def test_monodromy_substitution_matches_a_loop(tight):
    exp = expand_at(("0", "1"), PS, 0, order=20, cfg=tight)
    turned = monodromy_substitution(exp)
    z = 0.2 * cmath.exp(0.7j)
    lp = loop_around(PS, "0", z)
    direct = eval_L(("0", "1"), z, PS, cfg=tight, loop=lp).value
    assert abs(turned.evaluate(z) - direct) < 1e-8


def test_monodromy_substitution_is_exact_on_log_powers():
    exp = expand_at(("0", "0"), PS, 0)
    turned = monodromy_substitution(exp)
    tau = 2j * math.pi
    assert abs(turned.coeff(0, 2) - 0.5) < 1e-15
    assert abs(turned.coeff(0, 1) - tau * 0.5 * 2) < 1e-12
    assert abs(turned.coeff(0, 0) - 0.5 * tau ** 2) < 1e-12


def test_substitute_log_shift_round_trip():
    exp = expand_at(("0", "1"), PS, 0, order=12)
    back = exp.substitute_log_shift(1.5j).substitute_log_shift(-1.5j)
    for key, c in exp.coeffs.items():
        assert abs(back.coeff(*key) - c) < 1e-12


def test_log_degree_is_bounded_by_weight():
    exp = expand_at(("0", "0", "1"), PS, 0, order=12)
    assert exp.log_degree <= 3


def test_domain_errors():
    with pytest.raises(DomainError):
        expand_at(("0",), PS, 0, order=0)
    with pytest.raises(DomainError):
        expand_at(("0",), PS, 0, log_order=0)
    with pytest.raises(DomainError):
        expand_at(("2",), PS, 0)
    with pytest.raises(DomainError):
        expand_at(("1",), PoleSet.of("1,2"), 1)  # origin must be a puncture
    corrected = Section(PS, (RationalFunction.pole_power(PS, "0", 2),
                             RationalFunction.zero(PS)))
    with pytest.raises(DomainError):
        expand_at(("0",), PS, 0, section=corrected)


def test_evaluate_guards_the_disk():
    exp = expand_at(("0",), PS, 0)
    with pytest.raises(DomainError):
        exp.evaluate(0.0)
    with pytest.raises(DomainError):
        exp.evaluate(0.75)


def test_json_shape():
    exp = expand_at(("0",), PS, 0)
    blob = exp.to_json()
    assert blob["word"] == ["0"]
    assert blob["center"] == [0.0, 0.0]
    assert blob["terms"] == [{"j": 0, "k": 1, "coeff": [1.0, 0.0]}]
    assert blob["radius"] == 0.5


def test_round_trip_through_literal_constructor():
    exp = expand_at(("1",), PS, 0, order=6)
    clone = LogLaurentExpansion(exp.word, exp.center, exp.radius, exp.order,
                                exp.terms)
    z = 0.3 + 0.1j
    assert clone.evaluate(z) == exp.evaluate(z)
