import math

import numpy as np
import pytest

from curvelog import (
    DomainError,
    IntegratorConfig,
    Loop,
    MonodromyOperator,
    PoleSet,
    RationalFunction,
    Section,
    circle_loop,
    loop_around,
    monodromy_operator,
    pairing,
    period_matrix,
    label_words,
    unipotence_check,
)

TWO_PI_I = 2j * math.pi


@pytest.fixture
def ps():
    return PoleSet.of("0,1")


@pytest.fixture
def sec(ps):
    return Section.standard(ps)


def test_circle_loop_shape(ps):
    lp = circle_loop(ps, "0")
    assert lp.label == "ccw(0)"
    assert abs(lp.path.base - lp.path.end) < 1e-12
    assert lp.inverse().label == "ccw(0)^-1"
    assert circle_loop(ps, "0", turns=-2).label == "ccw(0)^-2"
    with pytest.raises(DomainError):
        circle_loop(ps, "0", radius=10.0)  # would swallow the other pole


def test_weight_one_pairing_is_residue(ps, sec):
    series = pairing(circle_loop(ps, "0"), sec, weight=1)
    assert abs(series.value(("0",)) - TWO_PI_I) < 1e-9
    assert abs(series.value(("1",))) < 1e-9


def test_weight_two_pairing(ps, sec):
    series = pairing(circle_loop(ps, "0"), sec, weight=2)
    assert abs(series.value(("0", "0")) - TWO_PI_I ** 2 / 2) < 1e-8
    assert series.grouplike_residual() < 1e-8


def test_loop_around_far_base_shrinks(ps, sec):
    base = 0.5 + 0j
    lp = loop_around(ps, "0", base)
    assert abs(lp.path.base - base) < 1e-12
    assert abs(lp.path.end - base) < 1e-12
    series = pairing(lp, sec, weight=1)
    assert abs(series.value(("0",)) - TWO_PI_I) < 1e-9


def test_monodromy_operator_weight_one(ps, sec):
    op = monodromy_operator(circle_loop(ps, "0"), sec, weight=1)
    assert op.basis == tuple(label_words(ps, 1))
    assert abs(op.entry((), ()) - 1) < 1e-12
    assert abs(op.entry(("0",), ()) - TWO_PI_I) < 1e-9
    assert abs(op.entry(("0",), ("0",)) - 1) < 1e-9
    assert abs(op.entry(("1",), ())) < 1e-9
    assert unipotence_check(op)


def test_monodromy_action_on_log(ps, sec):
    op = monodromy_operator(circle_loop(ps, "0"), sec, weight=1)
    vals = {(): 1.0 + 0j, ("0",): 0.25j, ("1",): 0.5 + 0j}
    moved = op.act(vals)
    assert abs(moved[("0",)] - (0.25j + TWO_PI_I)) < 1e-8
    assert abs(moved[("1",)] - 0.5) < 1e-8


def test_composition_is_matrix_product(ps, sec):
    base = 0.5 + 0j
    g0 = loop_around(ps, "0", base)
    g1 = loop_around(ps, "1", base)
    both = g0 * g1
    cfg = IntegratorConfig(rtol=1e-12, atol=1e-14)
    m0 = monodromy_operator(g0, sec, weight=2, cfg=cfg)
    m1 = monodromy_operator(g1, sec, weight=2, cfg=cfg)
    mboth = monodromy_operator(both, sec, weight=2, cfg=cfg)
    assert np.max(np.abs(mboth.matrix - (m0 @ m1).matrix)) < 1e-8


def test_inverse_loop_cancels(ps, sec):
    g = circle_loop(ps, "0")
    m = monodromy_operator(g, sec, weight=2)
    minv = monodromy_operator(g.inverse(), sec, weight=2)
    assert np.max(np.abs((m @ minv).matrix - np.eye(len(m.basis)))) < 1e-8


def test_unipotence_is_structural(ps, sec):
    op = monodromy_operator(circle_loop(ps, "1"), sec, weight=3)
    assert op.unipotence_residual() == 0.0
    assert op.is_unitriangular()


def test_unipotence_negative_control(ps):
    basis = label_words(ps, 1)
    m = np.eye(len(basis), dtype=complex)
    m[0, 0] = 2.0  # not unit on the diagonal
    bad = MonodromyOperator(basis, m, ps)
    assert not unipotence_check(bad)
    skew = np.eye(len(basis), dtype=complex)
    skew[0, len(basis) - 1] = 1.0  # empty word row hits a longer word
    assert not MonodromyOperator(basis, skew, ps).is_unitriangular()


def test_operator_shape_validation(ps):
    basis = label_words(ps, 1)
    with pytest.raises(DomainError):
        MonodromyOperator(basis, np.eye(2), ps)
    other = label_words(ps, 2)
    a = MonodromyOperator(basis, np.eye(len(basis)), ps)
    b = MonodromyOperator(other, np.eye(len(other)), ps)
    with pytest.raises(DomainError):
        a @ b


def test_loops_compose_only_at_a_common_base(ps):
    with pytest.raises(DomainError):
        circle_loop(ps, "0") * circle_loop(ps, "1")


def test_period_matrix_standard(sec):
    P = period_matrix(sec)
    want = TWO_PI_I * np.eye(2)
    assert np.max(np.abs(P - want)) < 1e-9


def test_period_matrix_ignores_corrections(ps):
    g = RationalFunction.pole_power(ps, "0", 2)
    h = RationalFunction.pole_power(ps, "1", 3, coeff=-2)
    corrected = Section(ps, (g, h))
    P = period_matrix(corrected)
    assert np.max(np.abs(P - TWO_PI_I * np.eye(2))) < 1e-9


def test_loop_json_round_trip(ps):
    lp = loop_around(ps, "1", 0.5 + 0j)
    back = Loop.from_json(lp.to_json())
    assert back.label == lp.label
    assert abs(back.path.base - lp.path.base) < 1e-12
    assert len(back.path.segments) == len(lp.path.segments)
