from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from curvelog import (
    QI,
    DeRhamClass,
    Differential,
    DomainError,
    PoleSet,
    RationalFunction,
    Section,
    d,
    decompose,
    dlog,
)


@pytest.fixture
def ps():
    return PoleSet.of("0,1")


def rf_pole(ps, which, order, coeff=1):
    return RationalFunction.pole_power(ps, which, order, coeff)


def test_pole_set_parsing():
    ps = PoleSet.of("0, 1, -1/2")
    assert len(ps) == 3
    assert ps.labels == ("0", "1", "-1/2")
    assert ps.index("0") == ps.index(QI.of(0)) == 0
    assert ps.index(1) == ps.index("1") == 1
    assert PoleSet.of(ps) is ps
    assert PoleSet.of([0, 1]).labels == ("0", "1")
    with pytest.raises(DomainError):
        PoleSet.of("0, 0")
    with pytest.raises(DomainError):
        PoleSet.of("0,1").index("2")


def test_pole_set_geometry():
    ps = PoleSet.of("0, 1, 3")
    assert ps.min_pairwise_distance == 1.0
    assert ps.as_complex == (0j, 1 + 0j, 3 + 0j)
    assert PoleSet.of("0,1").zero_index == PoleSet.of("0,1").index("0")


def test_rational_function_partial_fractions(ps):
    # 1/z * 1/(z-1) = 1/(z-1) - 1/z
    left = rf_pole(ps, "0", 1) * rf_pole(ps, "1", 1)
    want = rf_pole(ps, "1", 1) - rf_pole(ps, "0", 1)
    assert left == want
    # z * 1/z collapses to the constant
    z = RationalFunction.coordinate(ps)
    assert z * rf_pole(ps, "0", 1) == RationalFunction.const(ps, 1)
    # products raise the pole order
    sq = rf_pole(ps, "0", 1) * rf_pole(ps, "0", 1)
    assert sq == rf_pole(ps, "0", 2)


def test_rational_function_calculus(ps):
    f = rf_pole(ps, "0", 2, QI(3)) + RationalFunction.coordinate(ps)
    anti = f.antiderivative()
    assert anti.differentiate() == f
    assert anti.constant_term.is_zero
    with pytest.raises(DomainError):
        rf_pole(ps, "0", 1).antiderivative()
    assert rf_pole(ps, "0", 1, QI(5)).residues() == {ps.index("0"): QI(5)}


def test_rational_function_evaluation(ps):
    f = rf_pole(ps, "1", 1) + RationalFunction.const(ps, QI(0, 1))
    assert f.evaluate(2.0) == 1 + 1j
    assert f.evaluate_exact(QI(2)) == QI(1, 1)
    assert f.compiled()(2.0) == 1 + 1j
    with pytest.raises(DomainError):
        f.evaluate(1.0)
    with pytest.raises(DomainError):
        f.evaluate_exact(QI(1))


def test_rational_function_json_round_trip(ps):
    f = rf_pole(ps, "0", 2, QI(Fraction(1, 2))) - RationalFunction.coordinate(ps)
    assert RationalFunction.from_json(ps, f.to_json()) == f


def test_differential_labels(ps):
    w = dlog(ps, "0")
    assert w.label == "((1)/(z-(0)))dz"
    assert w.poles is ps
    assert w.project() == DeRhamClass.basis(ps, "0")


def test_projection_kills_exact_forms(ps):
    f = rf_pole(ps, "0", 3) + RationalFunction.coordinate(ps)
    assert d(f).project().is_zero
    mixed = Differential(rf_pole(ps, "0", 1, 2) + f.differentiate())
    assert mixed.project() == DeRhamClass.basis(ps, "0").scale(QI(2))


def test_standard_section_forms(ps):
    sec = Section.standard(ps)
    assert sec.is_standard
    assert sec.form("0").f == rf_pole(ps, "0", 1)
    word = sec.word(("0", "1"))
    assert [w.label for w in word] == ["((1)/(z-(0)))dz", "((1)/(z-(1)))dz"]


def test_corrected_section_decomposition(ps):
    g = rf_pole(ps, "0", 2, QI(Fraction(1, 3)))
    sec = Section(ps, (g, RationalFunction.zero(ps)))
    assert not sec.is_standard
    h, f = decompose(sec.form("0"), Section.standard(ps))
    assert h == DeRhamClass.basis(ps, "0")
    assert f == g
    # decomposing against the section itself returns a zero correction
    h2, f2 = decompose(sec.form("0"), sec)
    assert h2 == DeRhamClass.basis(ps, "0") and f2.is_zero


def test_decompose_general(ps):
    f = rf_pole(ps, "1", 2) + RationalFunction.coordinate(ps)
    w = Differential(rf_pole(ps, "0", 1, QI(2)) + f.differentiate())
    h, g = decompose(w, Section.standard(ps))
    assert h == DeRhamClass.basis(ps, "0").scale(QI(2))
    assert g == f
    back = Section.standard(ps).apply(h).f + g.differentiate()
    assert back == w.f


def test_section_validation(ps):
    other = PoleSet.of("0,2")
    with pytest.raises(DomainError):
        Section(ps, (RationalFunction.zero(other), RationalFunction.zero(other)))
    with pytest.raises(DomainError):
        Section.standard(ps).apply(DeRhamClass.zero(other))


def test_de_rham_class_algebra(ps):
    a = DeRhamClass.basis(ps, "0")
    b = DeRhamClass.basis(ps, "1")
    assert (a + b - a) == b
    assert a.scale(QI(0)).is_zero
    assert set(dict((a + b.scale(QI(2))).nonzero())) == {ps.index("0"),
                                                        ps.index("1")}


qi_small = st.fractions(min_value=-3, max_value=3, max_denominator=4).map(QI)


@st.composite
def rationals(draw, ps):
    poly = tuple(draw(st.lists(qi_small, max_size=2)))
    pp = []
    for i in range(len(ps)):
        k = draw(st.integers(min_value=0, max_value=2))
        if k:
            pp.append(((i, k), draw(qi_small)))
    return RationalFunction(ps, poly, tuple(pp))


@given(st.data())
def test_ring_laws(data):
    ps = PoleSet.of("0,1")
    f = data.draw(rationals(ps))
    g = data.draw(rationals(ps))
    h = data.draw(rationals(ps))
    assert f * g == g * f
    assert (f + g) * h == f * h + g * h
    assert (f * g) * h == f * (g * h)


@given(st.data())
def test_leibniz_rule(data):
    ps = PoleSet.of("0,1")
    f = data.draw(rationals(ps))
    g = data.draw(rationals(ps))
    assert (f * g).differentiate() == f.differentiate() * g + f * g.differentiate()


@given(st.data())
def test_product_evaluation_agrees(data):
    ps = PoleSet.of("0,1")
    f = data.draw(rationals(ps))
    g = data.draw(rationals(ps))
    z = QI(Fraction(1, 3), Fraction(1, 2))
    assert (f * g).evaluate_exact(z) == f.evaluate_exact(z) * g.evaluate_exact(z)


@given(st.data())
def test_decompose_reassembles(data):
    ps = PoleSet.of("0,1")
    w = Differential(data.draw(rationals(ps)))
    sec = Section.standard(ps)
    h, f = decompose(w, sec)
    assert sec.apply(h).f + f.differentiate() == w.f
    assert f.constant_term.is_zero
