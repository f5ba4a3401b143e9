import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from curvelog import (
    QI,
    BudgetError,
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
from curvelog.curve_genus0 import QI0
from series_checks import (_gaussian, _poly_add, _random_function, _trim,
                           reference_add, reference_differentiate,
                           reference_float_value, reference_scale)


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
    # a principal part given as a mapping reads as its items
    assert RationalFunction(ps, principal={(0, 2): 1}) == sq
    assert str(RationalFunction.zero(ps)) == "0"


def test_a_cancelling_bad_principal_key_is_still_rejected(ps):
    with pytest.raises(DomainError):
        RationalFunction(ps, (), (((0, 0), 1), ((0, 0), -1)))
    with pytest.raises(DomainError):
        RationalFunction(ps, (), (((5, 1), 1), ((5, 1), -1)))


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


def test_pole_orders_over_the_array_cap_are_refused(ps):
    # order 4095 is the largest pole order a principal part may have
    def payload(order):
        return {"principal": [{"pole": "0", "order": order, "coeff": "1"}]}

    f = RationalFunction.from_json(ps, payload(4095))
    assert f.principal == (((0, 4095), QI(1)),)
    with pytest.raises(BudgetError, match="cap of 4095 on a principal part"):
        RationalFunction.from_json(ps, payload(4096))


def test_differential_labels(ps):
    w = dlog(ps, "0")
    assert w.label == "((1)/(z-(0)))dz"
    assert str(w) == w.label
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


def test_standard_section_is_built_once_per_pole_set(ps):
    assert Section.standard("0,1") is Section.standard(ps)
    assert Section.standard(["0", "1"]) is Section.standard(ps)
    assert Section.standard("0,1,-1") is not Section.standard(ps)


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
    assert str(a.scale(QI(0))) == "0"
    assert str(a + b.scale(QI(2))) == "(1)*h[0] + (2)*h[1]"
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


@given(st.data(), st.booleans())
def test_decompose_reassembles(data, corrected):
    ps = PoleSet.of("0,1")
    w = Differential(data.draw(rationals(ps)))
    sec = (Section(ps, (data.draw(rationals(ps)), data.draw(rationals(ps))))
           if corrected else Section.standard(ps))
    h, f = decompose(w, sec)
    assert sec.apply(h).f + f.differentiate() == w.f
    assert f.constant_term.is_zero
    # both halves agree with subtracting the rebuilt class representative
    assert h == w.project()
    assert f == (w.f - sec.apply(h).f).antiderivative()


gauss_small = st.builds(
    QI, st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.fractions(min_value=-3, max_value=3, max_denominator=4))
GAUSSIAN_POLE_SETS = ("0,1", "0,1,-1/2,i", "1+i,-i,2/3")


@st.composite
def gaussian_rationals(draw, ps, max_order=3):
    """Gaussian coefficients, zeros included, up to degree 3 and order
    max_order; one draw in eight is the zero function."""
    if draw(st.integers(min_value=0, max_value=7)) == 0:
        return RationalFunction.zero(ps)
    poly = tuple(draw(st.lists(gauss_small, max_size=4)))
    pp = tuple(((i, k), draw(gauss_small)) for i in range(len(ps))
               for k in range(1, draw(st.integers(0, max_order)) + 1))
    return RationalFunction(ps, poly, pp)


def assert_normal(r):
    """r is a fixed point of the public constructor's checks and hashes
    like the instance they rebuild."""
    back = RationalFunction(r.poles, r.poly, r.principal)
    assert back == r
    assert hash(back) == hash(r)


@given(st.data(), st.sampled_from(GAUSSIAN_POLE_SETS), st.booleans())
def test_arithmetic_results_are_fixed_points_of_the_checks(data, spec,
                                                           corrected):
    ps = PoleSet.of(spec)
    f = data.draw(gaussian_rationals(ps))
    g = data.draw(gaussian_rationals(ps))
    c = data.draw(gauss_small)
    sec = (Section(ps, tuple(data.draw(gaussian_rationals(ps, 2)) for _ in ps))
           if corrected else Section.standard(ps))
    form = sec.form(data.draw(st.sampled_from(ps.labels))).f
    results = [f + g, f - g, f - f, f + 0, -f, f.scale(c), f.scale(0),
               f * g, f * form, form * f, g * form, f * c,
               f.differentiate(), f.differentiate().antiderivative(),
               RationalFunction(ps, f.poly).antiderivative(),
               RationalFunction.const(ps, c), RationalFunction.const(ps, 0),
               RationalFunction.zero(ps), decompose(Differential(f), sec)[1],
               decompose(Differential(f - f), sec)[1]]
    for r in results:
        assert_normal(r)


def assert_canonical(r):
    """r's vector is the one canonical vector of its function."""
    D, P, Q = r.vec
    assert type(P) is tuple and type(Q) is tuple and D > 0
    assert math.gcd(D, *[x for _, q in ((-1, P), *Q) for c in q
                         for x in c]) == 1
    assert all(type(q) is tuple and q for _, q in Q)
    assert all(q[-1] != (0, 0) for _, q in ((-1, P), *Q) if q)
    assert [j for j, _ in Q] == sorted({j for j, _ in Q})
    assert_normal(r)


def test_every_result_holds_the_canonical_vector():
    # seeded functions with zero terms among their coefficients, through
    # the standard and a corrected section, and the QI bodies each
    # operation replaced
    points = (0.3 + 0.7j, -1.7 + 0.2j, 1e5 - 3j)
    for spec, seed in (("0,1,-1/2,i", 41), ("0,1/3+2/5i,-2", 42)):
        ps = PoleSet.of(spec)
        rng = random.Random(seed)
        sections = (Section.standard(ps), Section(ps, tuple(
            _random_function(rng, ps) for _ in ps)))
        for _ in range(40):
            f, g = _random_function(rng, ps), _random_function(rng, ps)
            c = _gaussian(rng)
            no_residue = f - RationalFunction(ps, (), tuple(
                (key, v) for key, v in f.principal if key[1] == 1))
            results = [f + g, f - g, -f, f + c, f.scale(c), f.scale(0),
                       f * g, f * c, f.differentiate(),
                       no_residue.antiderivative(),
                       *(decompose(Differential(f), sec)[1]
                         for sec in sections)]
            for r in results:
                assert_canonical(r)
            assert f - f == RationalFunction.zero(ps)
            assert hash(f - f) == hash(RationalFunction.zero(ps))
            assert f + g == reference_add(f, g)
            assert f.scale(c) == reference_scale(f, c)
            assert -f == reference_scale(f, QI(-1))
            assert f.differentiate() == reference_differentiate(f)
            for z in points:
                # bit-identical floats: a / D rounds as complex(QI) does
                assert f.evaluate(z) == reference_float_value(f, z)
                assert f.compiled()(z) == reference_float_value(f, z)


# The reference below is the general product the package applied to every
# pair of operands, kept here with its helpers as they stood before the
# product was built from the generators z and 1/(z - s).

def _pow(c: QI, k: int) -> QI:
    return math.prod((c,) * k, start=QI(1))


def _poly_mul(a, b):
    if not a or not b:
        return ()
    out = [QI0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x.is_zero:
            continue
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return _trim(out)


def _poly_taylor(poly, s: QI):
    """Coefficients of p in powers of (z - s), given coefficients in z."""
    n = len(poly)
    out = []
    for m in range(n):
        acc = QI0
        for j in range(m, n):
            acc = acc + poly[j] * math.comb(j, m) * _pow(s, j - m)
        out.append(acc)
    return tuple(out)


def _shifted_monomial(s: QI, m: int):
    """Coefficients in z of (z - s)^m."""
    return tuple(QI.of(math.comb(m, j)) * _pow(-s, m - j) for j in range(m + 1))


def _mul_reference(f, g):
    ps = f.poles
    poly = list(_poly_mul(f.poly, g.poly))
    princ = []

    def add_poly(p):
        nonlocal poly
        poly = list(_poly_add(tuple(poly), p))

    def add_pp(i, k, c):
        princ.append(((i, k), c))

    def poly_times_pp(polyc, i, k, c):
        if not polyc or c.is_zero:
            return
        s = ps.points[i]
        for m, bm in enumerate(_poly_taylor(polyc, s)):
            if bm.is_zero:
                continue
            if m >= k:
                add_poly(tuple(v * (bm * c) for v in _shifted_monomial(s, m - k)))
            else:
                add_pp(i, k - m, c * bm)

    for (i, k), c in f.principal:
        poly_times_pp(g.poly, i, k, c)
    for (i, k), c in g.principal:
        poly_times_pp(f.poly, i, k, c)

    for (i, k), c in f.principal:
        for (j, l), dcoef in g.principal:
            cd = c * dcoef
            if cd.is_zero:
                continue
            if i == j:
                add_pp(i, k + l, cd)
                continue
            s, t = ps.points[i], ps.points[j]
            for a in range(1, k + 1):
                m = k - a
                sign = QI.of(-1) if m % 2 else QI.of(1)
                coeff = sign * math.comb(l + m - 1, m) * _pow(1 / (s - t), l + m)
                add_pp(i, a, cd * coeff)
            for b in range(1, l + 1):
                m = l - b
                sign = QI.of(-1) if m % 2 else QI.of(1)
                coeff = sign * math.comb(k + m - 1, m) * _pow(1 / (t - s), k + m)
                add_pp(j, b, cd * coeff)

    return RationalFunction(ps, tuple(poly), princ)


@given(st.data(), st.sampled_from(GAUSSIAN_POLE_SETS))
def test_product_by_a_simple_pole_matches_the_general_reference(data, spec):
    ps = PoleSet.of(spec)
    f = data.draw(gaussian_rationals(ps, max_order=4))
    s = data.draw(st.sampled_from(ps.labels))
    c = data.draw(gauss_small.filter(lambda q: not q.is_zero))
    letter = RationalFunction.pole_power(ps, s, 1, c)
    assert f * letter == _mul_reference(f, letter)
    z = QI(Fraction(1, 3), Fraction(2, 7))
    assert (f * letter).evaluate_exact(z) == (
        f.evaluate_exact(z) * letter.evaluate_exact(z))


def test_product_by_a_simple_pole_covers_each_part():
    # a polynomial part, a power at s itself, a pole at another Gaussian
    # point, and the zero function
    ps = PoleSet.of("0,1,-1/2,i")
    f = RationalFunction(ps, (QI(1), QI(0, 2), QI(-3)),
                         (((1, 2), QI(1, 1)), ((3, 1), QI(Fraction(1, 2))),
                          ((3, 3), QI(-2)), ((0, 1), QI(5))))
    for s in ps.labels:
        letter = RationalFunction.pole_power(ps, s, 1, QI(2, -1))
        assert f * letter == _mul_reference(f, letter)
        zero = RationalFunction.zero(ps)
        assert (zero * letter).is_zero and _mul_reference(zero, letter).is_zero


@given(st.data(), st.sampled_from(GAUSSIAN_POLE_SETS))
def test_the_generator_product_matches_the_reference(data, spec):
    # f * g steps f by z and by 1/(z - s) once per generator power of g
    ps = PoleSet.of(spec)
    f, g, h = (data.draw(gaussian_rationals(ps, max_order=4)) for _ in range(3))
    fg = f * g
    assert fg == _mul_reference(f, g)
    assert fg == g * f
    assert fg * h == f * (g * h)
    z = QI(Fraction(1, 3), Fraction(2, 7))
    assert fg.evaluate_exact(z) == f.evaluate_exact(z) * g.evaluate_exact(z)
    assert_normal(fg)


def test_foreign_operands_raise_type_error(ps):
    f = rf_pole(ps, "0", 2) + RationalFunction.coordinate(ps)
    for other in (1.5, dlog(ps, "1"), "1"):
        for op in (lambda: f * other, lambda: other * f, lambda: f + other,
                   lambda: f - other):
            with pytest.raises(TypeError):
                op()
    # exact scalars still scale and shift
    assert f * 2 == f + f == 2 * f
    assert f + Fraction(1, 2) - QI(0, 1) == f + QI(Fraction(1, 2), -1)


_PS2, _PS3 = PoleSet.of("0,1"), PoleSet.of("0,1,-1")


@pytest.mark.parametrize("call, message", [
    (lambda: _PS2.index(5), "pole index 5 out of range"),
    (lambda: _PS2.index(0.5), "cannot resolve pole 0.5"),
    (lambda: RationalFunction.const(_PS2, 1) + RationalFunction.const(_PS3, 1),
     "pole set mismatch between rational functions"),
    (lambda: DeRhamClass(_PS2, (1,)),
     "class vector length does not match the pole set"),
    (lambda: DeRhamClass.zero(_PS2) + DeRhamClass.zero(_PS3),
     "pole set mismatch between classes"),
    (lambda: Section(_PS2, (RationalFunction.zero(_PS2),)),
     "need one correction per puncture"),
    (lambda: decompose(dlog(_PS2, "1"), Section.standard(_PS3)),
     "class and section live over different pole sets"),
], ids=["index-out-of-range", "index-of-a-float", "function-plus-other-poles",
        "class-of-wrong-length", "class-plus-other-poles",
        "section-short-of-corrections", "decompose-other-section"])
def test_a_refusal_names_its_cause(call, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        call()
