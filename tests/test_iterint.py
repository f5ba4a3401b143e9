import cmath
import math

import pytest

from curvelog import (
    ArcSeg,
    DomainError,
    IntegratorConfig,
    LineSeg,
    Path,
    PathError,
    PoleSet,
    RationalFunction,
    Section,
    ShuffleTensor,
    chain_rule_check,
    d,
    dlog,
    integrate_words,
    j_element,
    kz_specialization_check,
    label_words,
    nabla_sigma,
    plan_path,
    shuffle_identity_check,
)

from oracles import LOG2

PS0 = PoleSet.of("0")


def test_path_construction():
    p = Path.polyline([0, 1, 1 + 1j])
    assert p.base == 0 and p.end == 1 + 1j
    assert len(p.segments) == 2
    rev = p.reverse()
    assert rev.base == 1 + 1j and rev.end == 0
    degenerate = Path.polyline([0.5])
    assert degenerate.segments == () and degenerate.end == 0.5
    with pytest.raises(PathError):
        Path.polyline([])
    with pytest.raises(PathError):
        Path((LineSeg(0, 1), LineSeg(2, 3)), 0)  # disconnected


def test_path_json_round_trip():
    arc = ArcSeg(0.5, 0.25, math.pi, 0.0)
    p = Path((LineSeg(0.1, arc.start), arc), 0.1)
    back = Path.from_json(p.to_json())
    assert back.base == p.base
    assert abs(back.end - p.end) < 1e-15
    for t in (0.0, 0.3, 1.0):
        assert abs(back.segments[1].point(t) - arc.point(t)) < 1e-15


def test_clearance_guard():
    ps = PoleSet.of("0,1")
    bad = Path.line(-1 + 0j, 2 + 0j)  # runs straight through both poles
    with pytest.raises(PathError):
        bad.check_clearance(ps)
    assert bad.min_distance_to(ps.as_complex) == 0.0


def test_plan_path_straight_when_clear():
    ps = PoleSet.of("0,1")
    p = plan_path(-1 + 1j, 2 + 1j, ps)
    assert p.base == -1 + 1j and p.end == 2 + 1j
    p.check_clearance(ps)


def test_plan_path_detours_and_stays_left():
    p = plan_path(-1 + 0j, 1 + 0j, PS0)
    p.check_clearance(PS0)
    # the detour bulges to the left of the travel direction (upper half here),
    # so continuing log across it loses i*pi rather than gaining it
    w = (dlog(PS0, "0"),)
    val = integrate_words(p, [w], PS0)[0][w]
    assert abs(val - (-1j * math.pi)) < 1e-9
    with pytest.raises(PathError):
        plan_path(0, 1, PoleSet.of("0,1"))  # endpoint sits on a pole


def test_exact_form_integrates_to_difference():
    ps = PoleSet.of("0,1")
    f = RationalFunction.coordinate(ps)
    path = Path.line(2 + 2j, 3 - 1j)
    w = (d(f),)
    vals, _, _ = integrate_words(path, [w], ps)
    assert abs(vals[w] - (3 - 1j - (2 + 2j))) < 1e-10
    assert vals[()] == 1.0


def test_log_two():
    w = (dlog(PS0, "0"),)
    val = integrate_words(Path.line(1, 2), [w], PS0)[0][w]
    assert abs(val - LOG2) < 1e-11


def test_empty_word_and_depth_two():
    path = Path.line(1, 2)
    w = dlog(PS0, "0")
    vals, _, _ = integrate_words(path, [(), (w,), (w, w)], PS0)
    assert vals[()] == 1.0
    assert abs(vals[(w, w)] - LOG2 ** 2 / 2) < 1e-10


def test_integrate_words_capture_and_trace():
    path = Path.polyline([1, 2, 4])
    w = (dlog(PS0, "0"),)
    vals, caps, traced = integrate_words(
        path, [w], PS0, capture_after=[0], trace=True)
    assert abs(vals[w] - math.log(4)) < 1e-9
    assert abs(caps[0][w] - LOG2) < 1e-9
    ts = [t for t, _ in traced]
    assert ts == sorted(ts) and len(ts) >= 2
    assert traced[-1][1][w] == vals[w]


def test_word_letters_must_share_the_pole_set():
    other = PoleSet.of("0,1")
    with pytest.raises(DomainError):
        integrate_words(Path.line(2, 3), [(dlog(other, "0"),)], PS0)


def test_pole_collision_rejected():
    with pytest.raises(PathError):
        integrate_words(Path.line(-1, 1), [(dlog(PS0, "0"),)], PS0)


def test_step_budget_is_enforced():
    from curvelog import NumericError
    cfg = IntegratorConfig(max_steps=2)
    with pytest.raises(NumericError):
        integrate_words(Path.line(1, 100), [(dlog(PS0, "0"), dlog(PS0, "0"))],
                        PS0, cfg)


def test_integrator_config_validation():
    with pytest.raises(DomainError):
        IntegratorConfig(rtol=-1)
    for bad in (float("nan"), float("inf"), 0.0):
        with pytest.raises(DomainError):
            IntegratorConfig(rtol=bad)
        with pytest.raises(DomainError):
            IntegratorConfig(atol=bad)
    with pytest.raises(DomainError):
        IntegratorConfig(weight=-1)
    assert IntegratorConfig(weight=0).weight == 0


def test_j_element_is_group_like():
    sec = Section.standard(PS0)
    series = j_element(Path.line(1, 2), sec, IntegratorConfig(weight=3))
    assert series.value(()) == 1.0
    assert abs(series.value(("0",)) - LOG2) < 1e-10
    assert abs(series.value(("0", "0")) - LOG2 ** 2 / 2) < 1e-10
    assert abs(series.value(("0", "0", "0")) - LOG2 ** 3 / 6) < 1e-9
    assert series.grouplike_residual() < 1e-9


def test_j_element_convolution_matches_concatenation():
    sec = Section.standard(PS0)
    cfg = IntegratorConfig(weight=3)
    p1, p2 = Path.line(1, 2), Path.line(2, 5)
    a = j_element(p1, sec, cfg)
    b = j_element(p2, sec, cfg)
    whole = j_element(p1 + p2, sec, cfg)
    conv = a.convolve(b)
    for w in label_words(PS0, 3):
        assert abs(conv.value(w) - whole.value(w)) < 1e-8


def test_shuffle_identity_numeric():
    ps = PoleSet.of("0,1")
    a = ShuffleTensor.from_word((dlog(ps, "0"),))
    b = ShuffleTensor.from_word((dlog(ps, "1"), dlog(ps, "0")))
    res = shuffle_identity_check(Path.line(2 + 1j, 3 + 2j), a, b)
    assert res < 1e-9


def test_chain_rule_numeric():
    word = (dlog(PS0, "0"), dlog(PS0, "0"))
    res = chain_rule_check(Path.line(1, 1 + 1j), Path.line(1 + 1j, 2), word)
    assert res < 1e-9


def test_nabla_structure():
    ps = PoleSet.of("0,1")
    sec = Section.standard(ps)
    z = RationalFunction.coordinate(ps)
    one = RationalFunction.const(ps, 1)

    # constant coefficient, single class letter: only the contraction survives
    t = ShuffleTensor.from_word(("0",))
    out = nabla_sigma(t, one, sec)
    assert len(out) == 1
    contracted, form = out[0]
    assert contracted == ShuffleTensor.unit()
    assert form.f == sec.form("0").f

    # nonconstant coefficient against the empty word: only the exterior part
    out = nabla_sigma(ShuffleTensor.unit(), z, sec)
    assert len(out) == 1
    tensor, form = out[0]
    assert tensor == ShuffleTensor.unit()
    assert form.f == one


def test_nabla_flatness_of_a_primitive():
    # the pair (word 00, 1) plus (word 0, -log-like corrections) is not
    # needed here; instead check the derivative of (unit, f) + (word, g)
    # reproduces the defining first-order system term by term.
    ps = PoleSet.of("0,1")
    sec = Section.standard(ps)
    f = RationalFunction.pole_power(ps, "0", 1)
    out = nabla_sigma(ShuffleTensor.from_word(("1",)), f, sec)
    labels = {form.label for _, form in out}
    assert len(out) == 2 and len(labels) == 2


def test_kz_restriction_collapses():
    assert kz_specialization_check(("1/3", "1/2"))
    assert kz_specialization_check(("0", "1", "7/2"))
    with pytest.raises(DomainError):
        kz_specialization_check(("1/2", "1/2", "3"))
    with pytest.raises(DomainError):
        kz_specialization_check(("1/2",))
