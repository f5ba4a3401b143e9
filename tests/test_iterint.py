import cmath
import itertools
import json
import math
import random
import time
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from curvelog import (
    ArcSeg,
    BudgetError,
    DomainError,
    GroupLikeSeries,
    IntegratorConfig,
    LineSeg,
    Loop,
    NumericError,
    Path,
    PathError,
    PoleSet,
    QI,
    RationalFunction,
    Section,
    ShuffleTensor,
    antipode,
    circle_loop,
    d,
    dlog,
    integrate_h_words,
    integrate_words,
    j_element,
    label_words,
    loop_around,
    nabla_sigma,
    period_matrix,
    plan_path,
    regularize,
)

from curvelog import iterint
from curvelog.hyperlog import reference_point
from curvelog.iterint import (_NODES, _RHO_MIN, _prefix_closure, _WordSystem,
                              _integrate, _plan, _run, _tails_within,
                              check_prefix_budget, glued, plan_chain,
                              retraced_tail)
from curvelog.local_expansion import series_values
from curvelog.reduce import default_basepoint
from curvelog.selftest import (DEFAULT_SEED, _letter_pool_omega,
                               _rand_point, _rand_tensor, chain_rule_check,
                               kz_specialization_check,
                               shuffle_identity_check)
from curvelog.shuffle_core import word_sort_key
from oracles import LOG2
from series_checks import (grouplike_residual, reference_antipode_table,
                           reference_integrate, reference_level_run,
                           reference_plan, reference_plan_path,
                           reference_prefix_closure, reference_run,
                           reference_sweep_plan, reference_tails_within,
                           section_change)

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


def test_a_nan_point_is_glued_to_nothing():
    # one predicate glues segments, paths, loops and evaluation points, and
    # a NaN end is glued to nothing, so no closed-loop check lets one by
    nan = complex(math.nan, 0)
    assert glued(1e9, 1e9 + 0.5) and not glued(1.0, 1.5)
    assert not glued(0.5, nan) and not glued(nan, 0.5)
    with pytest.raises(PathError, match="does not close up"):
        Loop(Path((LineSeg(0.5, nan),), 0.5))
    with pytest.raises(PathError, match="do not share an endpoint"):
        Path((LineSeg(0.5, nan),), 0.5) + Path.line(0.5, 1)
    with pytest.raises(PathError, match="does not start"):
        Path((LineSeg(0.5, nan), LineSeg(nan, 0.5)), 0.5)


def test_prefixes_past_the_array_cap_are_refused_before_any_are_built():
    # 8 bytes a letter of every prefix: 8,191 letters fit, 8,192 do not
    assert len(check_prefix_budget([("0",) * 8191])[0]) == 8191
    # the budget is one word's: a word with all its prefixes, as eval_L's
    # integration receives them, costs no more than the word alone
    assert len(check_prefix_budget(("0",) * k for k in range(1001))) == 1001
    for n in (8192, 20_000):
        with pytest.raises(BudgetError, match="prefix set"):
            check_prefix_budget([("0",) * n])
        with pytest.raises(BudgetError, match="prefix set"):
            _prefix_closure(iter([("0",) * n]))


def test_prefix_closure_matches_the_reference():
    # the walk down from each word's longest prefix builds the same list,
    # in the same order, as slicing every word into all its prefixes
    rng = random.Random(29)
    for _ in range(300):
        letters = rng.choice(("01", "0ab", "xyz1"))
        words = [tuple(rng.choice(letters) for _ in range(rng.randint(0, 7)))
                 for _ in range(rng.randint(0, 9))]
        if rng.random() < 0.3:  # some lists hold every prefix of a word
            words += [words[0][:k] for k in rng.sample(
                range(len(words[0]) + 1), len(words[0]) + 1)] if words else []
        assert _prefix_closure(words) == reference_prefix_closure(words)


def test_path_json_round_trip():
    arc = ArcSeg(0.5, 0.25, math.pi, 0.0)
    p = Path((LineSeg(0.1, arc.start), arc), 0.1)
    back = Path.from_json(p.to_json())
    assert back.base == p.base
    assert abs(back.end - p.end) < 1e-15
    for t in (0.0, 0.3, 1.0):
        assert abs(back.segments[1].point(t) - arc.point(t)) < 1e-15
    with pytest.raises(PathError,
                       match="^malformed path payload: 'segment kind'$"):
        Path.from_json({"base": [0, 0], "segments": [{"spiral": [1, 2]}]})


def test_clearance_guard():
    ps = PoleSet.of("0,1")
    bad = Path.line(-1 + 0j, 2 + 0j)  # runs straight through both poles
    with pytest.raises(PathError):
        bad.check_clearance(ps)
    assert bad.min_distance_to(ps.as_complex) == 0.0
    # one distance per point, the least over the segments (or the base's)
    ps = PoleSet.of("0,1,-1,i")
    for path in (Path((), 0.3 + 0.2j), plan_path(-2 + 0.5j, 2 - 0.5j, ps)):
        per_point = [min([seg.min_distance(p) for seg in path.segments]
                         or [abs(p - path.base)]) for p in ps.as_complex]
        assert path.min_distance_to(ps.as_complex) == min(per_point)
        path.check_clearance(ps)
    with pytest.raises(PathError, match="^path passes within 1e-12 of the "
                       "puncture 1 "):
        Path((), 1 + 1e-12j).check_clearance(ps)
    # min(best, d) from inf keeps best when d is NaN
    nan = complex(math.nan, 0)
    assert Path((), 0.5).min_distance_to([nan, 1]) == 0.5
    assert Path.line(0.5, 0.25).min_distance_to([nan, 1]) == 0.5
    assert Path((), 0.5).min_distance_to([nan]) == math.inf
    assert Path((), 0.5).min_distance_to([]) == math.inf


def test_plan_path_straight_when_clear():
    ps = PoleSet.of("0,1")
    p = plan_path(-1 + 1j, 2 + 1j, ps)
    assert p.base == -1 + 1j and p.end == 2 + 1j
    p.check_clearance(ps)


def test_long_segment_distance_does_not_overflow():
    assert LineSeg(0.5, 1e300).min_distance(1) < 1e-12
    ps = PoleSet.of("0,1")
    p = plan_path(0.5, 1e300, ps)
    assert any(isinstance(seg, ArcSeg) and seg.center == 1
               for seg in p.segments)
    assert p.min_distance_to([1]) >= ps.guard


def test_a_clamped_projection_reads_the_endpoint_itself():
    # start + length * u rounds 0.5 - 0.5 to 0, not to the tiny end
    seg = LineSeg(0.5, 1e-320)
    assert seg.min_distance(0) == 1e-320
    assert seg.reverse().min_distance(0) == 1e-320
    assert seg.min_distance(1) == 0.5
    assert LineSeg(-1, 1).min_distance(0.5j) == 0.5


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


def _sampled_sweep(path, p, per_seg=256):
    """The change of arg(w - p) along the path from sampled phases, each
    step taken as the shortest turn: exact while no step turns by pi."""
    total = 0.0
    prev = None
    for seg in path.segments:
        for i in range(per_seg + 1):
            ang = cmath.phase(complex(seg.point(i / per_seg)) - p)
            if prev is not None:
                total += (ang - prev + math.pi) % (2 * math.pi) - math.pi
            prev = ang
    return total


def test_sweep_of_lines_and_arcs():
    assert LineSeg(1, 1j).sweep(0) == pytest.approx(math.pi / 2)
    assert LineSeg(1j, 1).sweep(0) == pytest.approx(-math.pi / 2)
    assert LineSeg(2, 3).sweep(0) == 0.0
    # about its own center an arc sweeps its angle, full turns included
    assert ArcSeg(1, 0.3, 0.5, 0.5 + 3 * math.pi).sweep(1) == \
        0.5 + 3 * math.pi - 0.5
    assert ArcSeg(1, 0.3, math.pi, 0).sweep(1) == -math.pi
    # the right half of the unit circle, counterclockwise from -i to i: a
    # point between it and its chord (the imaginary axis) is swept by more
    # than pi, a point on the chord's other side by its chord angle alone
    arc = ArcSeg(0, 1.0, -math.pi / 2, math.pi / 2)
    between = 2 * (math.pi - math.atan(2))
    assert between > math.pi
    assert arc.sweep(0.5) == pytest.approx(between, abs=1e-14)
    assert arc.reverse().sweep(0.5) == pytest.approx(-between, abs=1e-14)
    assert arc.sweep(-0.5) == pytest.approx(
        cmath.phase((1j + 0.5) / (-1j + 0.5)), abs=1e-14)
    assert arc.sweep(3) == pytest.approx(_sampled_sweep(Path((arc,), -1j), 3),
                                         abs=1e-9)
    # a full circle winds once around every point inside it, none outside
    circle = ArcSeg(0.2, 1.0, 1.0, 1.0 + 2 * math.pi)
    assert circle.sweep(0.5j) == pytest.approx(2 * math.pi, abs=1e-12)
    assert circle.sweep(3 + 1j) == pytest.approx(0.0, abs=1e-12)
    assert circle.reverse().sweep(0.5j) == pytest.approx(-2 * math.pi,
                                                         abs=1e-12)


def test_sweep_matches_sampled_phases_on_random_arcs():
    rng = random.Random(7)
    for _ in range(300):
        c = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        radius = rng.uniform(0.1, 1.0)
        t0 = rng.uniform(-4, 4)
        arc = ArcSeg(c, radius, t0, t0 + rng.uniform(-9, 9))
        p = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if abs(abs(p - c) - radius) < 0.05:
            continue
        want = _sampled_sweep(Path((arc,), arc.start), p)
        assert arc.sweep(p) == pytest.approx(want, abs=1e-9), (arc, p)


@pytest.mark.parametrize("poles", ["0,1", "0,1,-1", "0,1,-1,i"])
def test_sweep_winds_planned_paths_closed_by_their_chords(poles):
    ps = PoleSet.of(poles)
    rng = random.Random(11)
    wound = 0
    for _ in range(40):
        a, b = (complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
                for _ in range(2))
        if min(abs(z - p) for z in (a, b) for p in ps.as_complex) < 0.05:
            continue
        leg = plan_path(a, b, ps)
        closed = leg + Path.line(b, a)
        for p in ps.as_complex:
            got = closed.sweep(p) / (2 * math.pi)
            assert abs(got - round(got)) < 1e-12
            wound += round(got) != 0
            assert round(got) == round(_sampled_sweep(closed, p)
                                       / (2 * math.pi))
            assert leg.sweep(p) == pytest.approx(_sampled_sweep(leg, p),
                                                 abs=1e-9)
    assert wound > 0  # some detours pass a puncture on the chord's far side


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


# A path without segments builds no word system: its endpoint values are
# its start over the words' prefix closure.  series_checks.reference_integrate
# is the route that built and ran the system anyway.

EMPTY = Path((), 0.3 + 0.2j)
PS3 = PoleSet.of("0,1,-1")
H_WORDS = [("1", "0", "0"), ("-1", "1"), ("0",), ("1", "0", "-1")]


def _closure(words):
    return {w[:k] for w in words for k in range(len(w) + 1)}


@pytest.mark.parametrize("seeded", [False, True])
def test_an_empty_path_returns_its_start_over_the_prefix_closure(seeded,
                                                                 monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("an empty path built or ran a word system")

    sec = Section.standard(PS3)
    start = (series_values(H_WORDS, PS3, EMPTY.base)
             if seeded else None)
    monkeypatch.setattr(iterint, "_WordSystem", never)
    monkeypatch.setattr(iterint, "_run", never)
    vals, caps = integrate_h_words(EMPTY, H_WORDS, sec, capture_after=[0],
                                   start=start)
    assert set(vals) == _closure(H_WORDS)
    assert caps == {}
    want, want_caps, _ = reference_integrate(
        EMPTY, H_WORDS, PS3, lambda lab: sec.form(lab).f, None, [0],
        start=start)
    assert vals == want and want_caps == {}
    if not seeded:
        assert vals == {w: 0j if w else 1 + 0j for w in vals}


def test_an_empty_path_returns_the_unit_over_differential_words():
    w = dlog(PS0, "0")
    words = [(w, w), (w,)]
    path = Path((), 2.0)
    vals, caps, rows = integrate_words(path, words, PS0, capture_after=[0],
                                       trace=True)
    assert vals == {(): 1 + 0j, (w,): 0j, (w, w): 0j}
    assert caps == {} and rows == []
    start = {(): 1 + 0j, (w,): 0.5 + 0j, (w, w): 0.125 + 0j}
    got = _integrate(path, words, PS0, lambda letter: letter.f, None,
                     start=start)
    assert got == (start, {}, [])


def test_an_empty_path_still_checks_its_letters_and_its_base():
    sec = Section.standard(PS3)
    with pytest.raises(DomainError, match="unknown class letter"):
        integrate_h_words(EMPTY, [("1", "2")], sec)
    with pytest.raises(DomainError, match="lives over poles"):
        integrate_words(Path((), 2.0), [(dlog(PoleSet.of("0,1"), "0"),)],
                        PS0)
    with pytest.raises(DomainError, match="not a differential letter"):
        integrate_words(Path((), 2.0), [("0",)], PS0)
    for base in (0.5 * PS3.guard, 1 - 0.5j * PS3.guard):
        with pytest.raises(PathError, match="path passes within"):
            integrate_h_words(Path((), base), H_WORDS, sec)


def test_an_empty_path_from_a_start_checks_the_same():
    # the letters are resolved lazily, each once: a spelling the pole set
    # would accept ("1/1", " 1") is still no class letter, and a start
    # changes nothing of the clearance check
    sec = Section.standard(PS3)
    start = series_values(H_WORDS, PS3, EMPTY.base)
    for word in [("1", "1/1"), (" 1",), ("0", "-1", "2")]:
        with pytest.raises(DomainError, match="unknown class letter"):
            integrate_h_words(EMPTY, [word], sec, start=start)
    for base in (0.5 * PS3.guard, -1 + 0.5j * PS3.guard):
        with pytest.raises(PathError, match="path passes within"):
            integrate_h_words(Path((), base), H_WORDS, sec, start=start)


def _planned(a, b, ps, plan):
    """The planned path, or the text of the PathError that refused it."""
    try:
        return plan(a, b, ps)
    except PathError as exc:
        return str(exc)


@pytest.mark.parametrize("poles", ["0,1", "0,1,-1", "0,1,-1,i"])
def test_a_planned_path_is_the_reference_plan(poles):
    # a leg without a detour is cleared from the distances plan_path read
    # while planning; the path and every refusal must be the whole path's,
    # next to a puncture (the distance read at an end or mid-leg) and at
    # the 1e-14 edge, where the leg is no segment and its end is its base
    ps = PoleSet.of(poles)
    rng = random.Random(37)
    ends = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(40)]
    ends += [1e-9, 0.0005 + 0.0005j, 1e-320, 1.002 + 0.0001j, -0.001 + 0.0005j,
             0.5 + 5e-15, 0.5 - 5e-15j, 0.5 + 2e-14]
    refused = detoured = 0
    for a in (0.5, -0.3 + 0.4j, 1.7 - 0.2j):
        for b in ends:
            got = _planned(a, b, ps, plan_path)
            assert got == _planned(a, b, ps, reference_plan_path), (a, b)
            refused += isinstance(got, str)
            detoured += not isinstance(got, str) and len(got.segments) > 1
    assert refused >= 5 and detoured >= 10


def test_word_letters_must_share_the_pole_set():
    other = PoleSet.of("0,1")
    with pytest.raises(DomainError):
        integrate_words(Path.line(2, 3), [(dlog(other, "0"),)], PS0)


def test_pole_collision_rejected():
    with pytest.raises(PathError):
        integrate_words(Path.line(-1, 1), [(dlog(PS0, "0"),)], PS0)


def test_step_budget_is_enforced(monkeypatch):
    monkeypatch.setattr(iterint, "_MAX_PIECES", 2)
    with pytest.raises(NumericError):
        integrate_words(Path.line(1, 100), [(dlog(PS0, "0"), dlog(PS0, "0"))],
                        PS0)


def test_unreachable_tolerance_fails_promptly(monkeypatch):
    # with the default budget too: bisection stops at the resolution of t
    cfg = IntegratorConfig(rtol=1e-300, atol=1e-300)
    for budget in (500, iterint._MAX_PIECES):
        monkeypatch.setattr(iterint, "_MAX_PIECES", budget)
        start = time.perf_counter()
        with pytest.raises(NumericError):
            integrate_words(Path.line(1, 2), [(dlog(PS0, "0"),)], PS0, cfg)
        assert time.perf_counter() - start < 2.0


def test_spectral_integration_matrix_integrates_exp():
    from curvelog.iterint import _spectral
    x, st, *_ = _spectral()
    assert x[0] == -1.0 and x[-1] == 1.0
    err = np.exp(x) @ st - (np.exp(x) - math.exp(-1.0))
    assert np.max(np.abs(err)) <= 1e-14


def test_integrator_config_validation():
    with pytest.raises(DomainError):
        IntegratorConfig(rtol=-1)
    for bad in (float("nan"), float("inf"), 0.0):
        with pytest.raises(DomainError):
            IntegratorConfig(rtol=bad)
        with pytest.raises(DomainError):
            IntegratorConfig(atol=bad)


def test_j_element_refuses_a_negative_weight():
    # as does every word basis and every series, before anything is built
    sec = Section.standard(PS0)
    message = "^the weight of a series cannot be negative$"
    with pytest.raises(DomainError, match=message):
        j_element(Path.line(1, 2), sec, -1)
    with pytest.raises(DomainError, match=message):
        label_words(PS0, -1)
    with pytest.raises(DomainError, match=message):
        GroupLikeSeries(-1, ("0",), np.ones(0))
    assert j_element(Path.line(1, 2), sec, 0).vector.tolist() == [1]


@pytest.mark.parametrize("weight", [2.5, 2.0, "2", Fraction(2)])
def test_a_non_integral_weight_is_refused_as_a_negative_one_is(weight):
    # range() raised a bare TypeError while the words were counted
    sec = Section.standard(PS0)
    message = "^the weight of a series is no integer: "
    with pytest.raises(DomainError, match=message):
        j_element(Path.line(1, 2), sec, weight)
    with pytest.raises(DomainError, match=message):
        label_words(PS0, weight)


def test_j_element_is_group_like():
    sec = Section.standard(PS0)
    series = j_element(Path.line(1, 2), sec, 3)
    assert series.values[()] == 1.0
    assert abs(series.values[("0",)] - LOG2) < 1e-10
    assert abs(series.values[("0", "0")] - LOG2 ** 2 / 2) < 1e-10
    assert abs(series.values[("0", "0", "0")] - LOG2 ** 3 / 6) < 1e-9
    assert grouplike_residual(series) < 1e-9


def test_j_element_convolution_matches_concatenation():
    sec = Section.standard(PS0)
    p1, p2 = Path.line(1, 2), Path.line(2, 5)
    a = j_element(p1, sec, 3)
    b = j_element(p2, sec, 3)
    whole = j_element(p1 + p2, sec, 3)
    conv = a @ b
    for w in label_words(PS0, 3):
        assert abs(conv.values[w] - whole.values[w]) < 1e-8


@pytest.mark.parametrize("points", ["0", "0,1", "0,1,-1", "0,1,-1,i"])
def test_canonical_word_system_matches_the_closure_build(points):
    # the closure-built system is the reference for the arithmetic one
    ps = PoleSet.of(points)
    sec = Section.standard(ps)
    for weight in range(7):
        ref = _WordSystem(label_words(ps, weight), lambda lab: sec.form(lab).f)
        got = _WordSystem.canonical(ps, weight, lambda lab: sec.form(lab).f)
        assert got.words == ref.words and got.n == ref.n
        assert np.array_equal(got.parents, ref.parents)
        assert np.array_equal(got.slots, ref.slots)
        assert got.levels == ref.levels


def _corrected_section(ps):
    return Section(ps, (RationalFunction.pole_power(ps, "1", 2),
                        RationalFunction.pole_power(ps, "0", 3, coeff=-2),
                        RationalFunction.zero(ps)))


def _dict_route(path, sec, weight):
    words = label_words(sec.poles, weight)
    vals, _ = integrate_h_words(path, words, sec)
    return np.array([vals[w] for w in words], dtype=complex)


def test_j_element_is_bit_identical_to_the_dict_route():
    # paths that retrace no stick, and every path through a section that
    # is not the standard one, are integrated whole: both routes run the
    # same kernel on the same pieces
    ps = PoleSet.of("0,1,-1")
    corrected = _corrected_section(ps)
    cases = [(circle_loop(ps, s).path, sec) for s in ("0", "1", "-1")
             for sec in (Section.standard(ps), corrected)]
    cases += [((loop_around(ps, "0", 0.5 + 0.5j)
                * loop_around(ps, "1", 0.5 + 0.5j)).path, sec)
              for sec in (Section.standard(ps), corrected)]
    cases += [(loop_around(ps, s, 0.5 + 0.5j).path, corrected)
              for s in ("0", "1", "-1")]
    for path, sec in cases:
        for weight in range(1, 7):
            assert np.array_equal(j_element(path, sec, weight).vector,
                                  _dict_route(path, sec, weight))


def test_j_element_through_a_corrected_section_matches_the_section_change():
    # the exact normal form of each corrected word through the standard
    # section, at the loops' base point, carries the standard series to
    # the corrected one; the corrected series is integrated along the
    # whole loop, and its gap grows with the weight near the order-4 pole
    # of letter 1 (1.8e-11 of the scale around -1 at weight 4)
    ps = PoleSet.of("0,1,-1")
    corrected = _corrected_section(ps)
    x0 = QI(Fraction(1, 2), Fraction(1, 2))
    change = section_change(corrected, 4, x0)
    for s in ps.labels:
        path = loop_around(ps, s, complex(x0)).path
        for weight in range(1, 5):
            got = j_element(path, corrected, weight).vector
            n = len(got)
            want = change[:n, :n] @ j_element(path, Section.standard(ps),
                                              weight).vector
            assert (np.abs(got - want).max()
                    <= 1e-10 * max(1.0, np.abs(want).max()))


def _loops_with_a_stick(ps, s):
    for turns in (1, -1, 2, -2):
        loop = loop_around(ps, s, 0.5 + 0.5j, turns=turns)
        yield loop
        if turns == 1:
            yield loop.inverse()
            yield Loop.from_json(json.loads(json.dumps(loop.to_json())))


def test_j_element_integrates_a_based_loop_stick_once():
    # through the standard section a loop that retraces its stick is
    # integrated up to the end of its circle and closed by the stick's
    # antipode; the full-path integration agrees to rounding on the
    # series' scale, as it does (bit for bit) on the corrected section
    ps = PoleSet.of("0,1,-1")
    for sec in (Section.standard(ps), _corrected_section(ps)):
        for s in ps.labels:
            for loop in _loops_with_a_stick(ps, s):
                assert retraced_tail(loop.path.segments) > 0
                for weight in range(1, 7):
                    got = j_element(loop.path, sec, weight).vector
                    want = _dict_route(loop.path, sec, weight)
                    assert got[0] == 1
                    assert (np.abs(got - want).max()
                            <= 1e-15 * max(1.0, np.abs(want).max()))


def test_retraced_tail():
    ps = PoleSet.of("0,1,-1")
    loop = loop_around(ps, "1", 0.5 + 0.5j)
    n = len(loop.path.segments)
    assert retraced_tail(loop.path.segments) == (n - 1) // 2
    assert retraced_tail(circle_loop(ps, "1").path.segments) == 0
    there_and_back = Path.polyline([0.5, 2, 0.5])
    assert retraced_tail(there_and_back.segments) == 0  # nothing in between
    assert retraced_tail(Path.polyline([0.5, 2, 3, 2, 0.5]).segments) == 1
    assert retraced_tail(Path.polyline([0.5, 2, 3, 2.5, 0.5]).segments) == 0


def test_series_inverse_is_the_shuffle_antipode():
    # the vector antipode against the tensor one, word by word
    ps = PoleSet.of("0,1,-1")
    rng = np.random.default_rng(3)
    words = label_words(ps, 4)
    index = {w: i for i, w in enumerate(words)}
    vec = rng.normal(size=len(words)) + 1j * rng.normal(size=len(words))
    got = GroupLikeSeries(4, ps.labels, vec).inverse().vector
    for w in words:
        want = sum(complex(c) * vec[index[u]]
                   for u, c in antipode(ShuffleTensor.from_word(w)).terms.items())
        assert got[index[w]] == want


def test_segment_nodes_evaluate_one_exp():
    t = np.linspace(0.0, 1.0, 7)
    arc = ArcSeg(0.25 - 0.5j, 0.3, 0.7, -4.1)
    w = np.exp(1j * (arc.theta0 + t * (arc.theta1 - arc.theta0)))
    z, dz = arc.nodes(t)
    assert np.array_equal(z, arc.center + arc.radius * w)
    assert np.array_equal(dz, 1j * (arc.theta1 - arc.theta0) * arc.radius * w)
    line = LineSeg(1 + 1j, -2 + 0.5j)
    z, dz = line.nodes(t)
    assert np.array_equal(z, line.point(t)) and dz == line.end - line.start


def _near(got, want) -> bool:
    """Equal to rounding on the vector's scale."""
    return (np.abs(got - want).max()
            <= 1e-15 * max(1.0, np.abs(want).max()))


def test_j_element_agrees_with_the_reference_kernel(monkeypatch):
    # the per-level GEMM, the thin top level and the stick integrated once
    # against the per-row gather and full GEMM on the whole path: the same
    # values to rounding, from the pieces of the path without its retraced
    # stick
    ps = PoleSet.of("0,1,-1")
    sec = Section.standard(ps)
    for s in ps.labels:
        path = loop_around(ps, s, 0.5 + 0.5j).path
        k = retraced_tail(path.segments)
        head = Path(path.segments[:len(path.segments) - k], path.base)
        for weight in range(1, 7):
            system = _WordSystem.canonical(ps, weight,
                                           lambda lab: sec.form(lab).f)
            y0 = np.eye(1, system.n, dtype=complex)[0]
            for rtol in (1e-10, 1e-13):
                cfg = IntegratorConfig(rtol=rtol)
                want, _, _, _ = reference_run(system, y0, path, cfg,
                                              ps.as_complex)
                _, _, _, count = reference_run(system, y0, head, cfg,
                                               ps.as_complex)
                got = j_element(path, sec, weight, cfg).vector
                # to rounding on the series' scale: an entry that cancels
                # to 1e-16 carries the rounding of its O(1) summands
                assert _near(got, want)
                with monkeypatch.context() as patch:
                    patch.setattr(iterint, "_MAX_PIECES", count)
                    j_element(path, sec, weight, cfg)
                    patch.setattr(iterint, "_MAX_PIECES", count - 1)
                    with pytest.raises(NumericError):
                        j_element(path, sec, weight, cfg)
                    with pytest.raises(NumericError):
                        reference_run(system, y0, head, cfg, ps.as_complex)


_coord = st.floats(-10, 10)
_point = st.builds(complex, _coord, _coord)


def test_the_worst_piece_of_the_clearance_rule_has_rho_min():
    # a puncture at distance L from the middle of a line piece of length L
    seg = LineSeg(0j, 1 + 0j)
    assert seg.min_distance(0.5 + 1j) == seg.length
    assert math.isclose(seg.bernstein(0.5 + 1j), 2 + math.sqrt(5),
                        rel_tol=1e-15)


@given(_point, _point, st.floats(-2, 3), st.floats(-2, 2))
def test_a_line_piece_the_clearance_rule_passes_keeps_rho_min(a, b, u, v):
    # the rule before the ellipse: a piece no longer than its distance to
    # the nearest puncture; every such piece passes the ellipse test
    assume(abs(b - a) > 1e-6)
    seg = LineSeg(a, b)
    p = a + (b - a) * complex(u, v)
    assume(seg.length <= seg.min_distance(p))
    assert seg.bernstein(p) >= _RHO_MIN * (1 - 1e-12)


@given(_point, st.floats(0.01, 5), st.floats(-7, 7), st.floats(-7, 7),
       _point, _point, _point)
def test_halves_keep_at_least_the_rho_of_their_piece(c, r, th0, th1, a, b,
                                                      p):
    # rho only grows on a sub-interval, so a tail split's halves skip the
    # ellipse test; on an arc, in the angle, over every image of p
    for seg in (LineSeg(a, b), ArcSeg(c, r, th0, th1)):
        rho = seg.bernstein(p)
        for half in (seg.piece(0.0, 0.5), seg.piece(0.5, 1.0)):
            assert half.bernstein(p) >= rho * (1 - 1e-12)


def test_an_arc_is_bounded_by_the_other_punctures_alone():
    # z = c + r e^{i theta} never reaches c: a circle about a lone puncture
    # is one piece, and one about 0 on {0, 1, -1} is planned by 1 and -1
    arc = ArcSeg(1 + 1j, 0.45, 0.3, 0.3 + 2 * math.pi)
    assert arc.bernstein(arc.center) == math.inf
    assert _plan(arc, [arc.center], 1) == [(0.0, 1.0)]
    ps = PoleSet.of("0,1,-1")
    circle = ArcSeg(0j, 0.45, 0.0, 2 * math.pi)
    plan = _plan(circle, ps.as_complex, 100)
    assert len(plan) == 6  # planner output: 8 under bisection
    rho = [circle.piece(ta, tb).bernstein(p) for ta, tb in plan
           for p in ps.as_complex]
    assert min(rho) >= _RHO_MIN and max(rho) == math.inf


_LONG = LineSeg(2 + 0j, 1e300 * (1 + 1j))


def test_a_long_segment_plans_finitely_many_pieces():
    # d * d overflows on the far pieces of a segment 1e300 long, and a NaN
    # rho would accept a piece: rho is read from d / L
    ps = PoleSet.of("0,1")
    plan = _check_plan(_LONG, ps.as_complex)
    assert len(plan) == 719  # planner output: bisection examined 1,995
    far = _LONG.piece(*plan[-1])
    d = abs(far.start) + abs(far.end)  # about the puncture 0
    assert math.isinf(d * d)


def _check_plan(seg, punctures):
    """The plan of seg, after checking that it tiles [0, 1] exactly, that
    every piece keeps rho >= _RHO_MIN as computed and no two neighbours
    joined do, and that bisection needs at least as many pieces."""
    plan = _plan(seg, punctures, 100_000)
    assert plan[0][0] == 0.0 and plan[-1][1] == 1.0
    assert all(a[1] == b[0] for a, b in zip(plan, plan[1:]))

    def keeps(ta, tb):
        piece = seg.piece(ta, tb)
        return all(piece.bernstein(p) >= _RHO_MIN for p in punctures)

    assert all(keeps(ta, tb) for ta, tb in plan)
    assert not any(keeps(a[0], b[1]) for a, b in zip(plan, plan[1:]))
    assert len(plan) <= len(reference_plan(seg, punctures, 100_000)[0])
    return plan


_TWO_PI = 2 * math.pi


@pytest.mark.parametrize("seg", [
    LineSeg(-2 + 0.5j, 3 + 0.5j), LineSeg(3 - 0.01j, -2 - 0.01j),
    LineSeg(0.5 + 0.5j, 0.5 + 1e-3j), _LONG,
    ArcSeg(0j, 0.45, 0.0, _TWO_PI), ArcSeg(0j, 0.45, _TWO_PI, 0.0),
    ArcSeg(1 + 0j, 0.45, 1.0, 1.0 - 3 * _TWO_PI),
    ArcSeg(-1 + 0j, 0.45, -2.0, -2.0 + 2 * _TWO_PI),
    ArcSeg(0.5 + 0j, 0.5 - 1e-3, 0.3, 0.3 + _TWO_PI),
    ArcSeg(0j, 3.0, -0.5, 0.5 + 4 * _TWO_PI),
    ArcSeg(0.5 + 0.5j, 0.2, 0.0, math.pi)])
def test_planned_pieces_are_the_longest_the_ellipse_rule_accepts(seg):
    # lines, arcs both ways, several turns, an arc about no puncture passing
    # close to two, one enclosing all three, and the 1e300 segment
    _check_plan(seg, PoleSet.of("0,1,-1").as_complex)


@given(_point, _point, st.floats(0.01, 5), st.floats(-7, 7),
       st.floats(-20, 20), st.lists(_point, min_size=1, max_size=3))
# the angle of 2 + 5e-324i underflows, where cmath.phase raised
@example(0j, 0j, 1.0, 0.0, 7.0, [2 + 5e-324j])
def test_random_plans_are_the_longest_the_ellipse_rule_accepts(a, b, r, th0,
                                                                th1, ps):
    for seg in (LineSeg(a, b), ArcSeg(a, r, th0, th1)):
        assume(all(seg.min_distance(p) > 1e-3 for p in ps))
        _check_plan(seg, ps)


@given(_point, _point, st.floats(0.01, 5), st.floats(-7, 7),
       st.floats(-40, 40), st.lists(_point, min_size=1, max_size=3))
# found by a seeded search: a line 3 of whose 4 pieces, and an arc of 1.5
# turns 2 of whose 4, are shortened by the hair before they are confirmed
@example(-8.117399161206349 + 1.6557601180671018j,
         8.194081262862046 - 5.706036383286765j, 0.4388766961089667,
         -1.1455898808093679, -10.373479994918998,
         [8.957307212181263 - 2.1035300715365306j,
          -9.034271527463753 + 6.425485839826166j])
# an arc of 2.3 turns about a puncture at its center, 10 of whose 24
# pieces are shortened
@example(-4.004660062726353 + 5.887589630449824j, 3.9798886745914253
         - 5.118069785556942j, 2.8763743141907683, 0.3527510533603202,
         15.005499822937153, [-5.880825743613469 + 3.6079994636357178j,
                              -1.4481538866119426 - 3.7170565924641696j,
                              -4.004660062726353 + 5.887589630449824j])
def test_a_plan_is_the_reference_sweep_plan(a, b, r, th0, th1, ps):
    # each piece is confirmed from the segment's own data, not from a
    # piece built for the check: the same pieces, every bound equal
    segs = [seg for seg in (LineSeg(a, b), ArcSeg(a, r, th0, th1))
            if all(seg.min_distance(p) > 1e-3 for p in ps)]
    assume(segs)
    for seg in segs:
        assert _plan(seg, ps, 100_000) == reference_sweep_plan(seg, ps,
                                                               100_000)
        # a budget one piece short is refused alike
        short = len(reference_sweep_plan(seg, ps, 100_000)) - 1
        for plan in (_plan, reference_sweep_plan):
            with pytest.raises(NumericError, match="budget"):
                plan(seg, ps, short)


def test_a_plan_keeps_to_its_budget():
    ps = PoleSet.of("0,1,-1").as_complex
    seg = ArcSeg(0j, 0.45, 0.0, _TWO_PI)
    assert len(_plan(seg, ps, 6)) == 6
    with pytest.raises(NumericError, match="budget"):
        _plan(seg, ps, 5)
    with pytest.raises(NumericError, match="underflow"):
        _plan(LineSeg(-1 + 0j, 1 + 0j), [-1 + 0j], 10)


def test_a_circle_whose_radius_times_its_angle_overflows_integrates():
    # 0.45e308 times 2 pi passes the largest float: each piece's velocity
    # is scaled by its share of the angle before the radius multiplies it
    ps = PoleSet.of("0,1e308")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        periods = period_matrix(Section.standard(ps))
    assert np.abs(periods - 2j * math.pi * np.eye(2)).max() <= 1e-14


def _head_pieces(loop, sec, weight):
    """The pieces ``j_element`` integrates for a loop through the standard
    section (its path without the retraced stick), read from trace rows."""
    segs = loop.path.segments
    head = Path(segs[:len(segs) - retraced_tail(segs)], loop.path.base)
    ps = sec.poles
    system = _WordSystem.canonical(ps, weight, lambda lab: sec.form(lab).f)
    _, _, rows = _run(system, np.eye(1, system.n, dtype=complex)[0], head,
                      IntegratorConfig(), ps.as_complex, trace=True)
    return len(rows) // (_NODES - 1)


@pytest.mark.parametrize("label,pieces", [("0", 7), ("1", 6), ("-1", 6)])
def test_a_loop_at_distance_one_integrates_fewer_pieces(label, pieces):
    # planner outputs: the stick is one piece (rho 5.07), the circle about 0
    # six and the one about 1 or -1 five; bisection took 9, 7 and 7, and
    # the clearance rule before it 10 each
    ps = PoleSet.of("0,1,-1")
    s = ps.as_complex[ps.index(label)]
    for base in (s + 1j, s - 1j):
        loop = loop_around(ps, label, base)
        assert _head_pieces(loop, Section.standard(ps), 6) == pieces


def test_j_element_keeps_its_accuracy_on_ellipse_pieces():
    # against the reference kernel at rtol 1e-14 along the whole loop (the
    # stick integrated both ways): within 2e-15 of the series' scale up to
    # weight 6 (7.5e-16 measured)
    ps = PoleSet.of("0,1,-1")
    sec = Section.standard(ps)
    ref = IntegratorConfig(rtol=1e-14, atol=1e-16)
    for label in ps.labels:
        s = ps.as_complex[ps.index(label)]
        for base in (s + 1j, 0.5 + 0.5j):
            path = loop_around(ps, label, base).path
            for weight in range(1, 7):
                system = _WordSystem.canonical(ps, weight,
                                               lambda lab: sec.form(lab).f)
                y0 = np.eye(1, system.n, dtype=complex)[0]
                want = reference_run(system, y0, path, ref, ps.as_complex)[0]
                got = j_element(path, sec, weight).vector
                assert (np.abs(got - want).max()
                        <= 2e-15 * max(1.0, np.abs(want).max()))


_BAD = [math.nan, math.inf, -math.inf, complex(0, math.nan),
        complex(math.inf, 1), complex(1, -math.inf)]


@pytest.mark.parametrize("where", ["y", "end", "T"])
@pytest.mark.parametrize("bad", _BAD)
def test_the_tail_shortcut_gives_the_full_tests_verdict(where, bad):
    # tails all within atol pass without the full test, which a NaN or
    # infinite endpoint or tail must not change
    cfg = IntegratorConfig()
    rng = np.random.default_rng(5)
    y = rng.normal(size=6) + 1j * rng.normal(size=6)
    for tails in (0.0, 1e-14, 1e-12, 1e-11, 1.0):
        arrays = {"y": y.copy(), "end": y + 0.25,
                  "T": np.full((6, 2), tails, dtype=complex)}
        for clean in (True, False):
            if not clean:
                arrays[where].reshape(-1)[3] = bad
            args = arrays["T"], arrays["y"], arrays["end"], cfg
            assert _tails_within(*args) == reference_tails_within(*args)


def test_a_tiny_atol_splits_pieces_as_the_reference_kernel_does(
        monkeypatch):
    # at atol 1e-300 no piece passes by the shortcut: the full test halves
    # the same pieces in both kernels, and the budget counts them alike
    ps = PoleSet.of("0,1,-1")
    sec = Section.standard(ps)
    cfg = IntegratorConfig(rtol=1e-14, atol=1e-300)
    for label in ps.labels:
        path = loop_around(ps, label, 0.5 + 0.5j).path
        planned = sum(len(_plan(seg, ps.as_complex, 1000))
                      for seg in path.segments)
        for weight in (3, 5):
            system = _WordSystem.canonical(ps, weight,
                                           lambda lab: sec.form(lab).f)
            y0 = np.eye(1, system.n, dtype=complex)[0]
            _, _, rows = _run(system, y0, path, cfg, ps.as_complex,
                              trace=True)
            _, _, want, count = reference_run(system, y0, path, cfg,
                                              ps.as_complex, trace=True)
            assert [t for t, _ in rows] == [t for t, _ in want]
            assert count > planned
            with monkeypatch.context() as patch:
                patch.setattr(iterint, "_MAX_PIECES", count)
                _run(system, y0, path, cfg, ps.as_complex)
                patch.setattr(iterint, "_MAX_PIECES", count - 1)
                with pytest.raises(NumericError, match="budget"):
                    _run(system, y0, path, cfg, ps.as_complex)


def _eval_l_system(poles, word):
    """An eval_L system: the admissible words of ``word`` from their Taylor
    values at the reference point, along a chain captured after each leg."""
    ps = PoleSet.of(poles)
    sec = Section.standard(ps)
    admissible = {u for _, t in regularize(word, ps).parts for u in t.terms}
    z1 = reference_point(ps)
    start = series_values(admissible | {("0",)}, ps, z1)
    path, marks = plan_chain(z1, [0.3 + 0.4j, -0.2 + 0.5j, 0.6 - 0.3j], ps)
    return ps, lambda lab: sec.form(lab).f, list(start), start, path, marks


def _omega_system():
    """A sparse system over six letters from the unit: the words and the
    chain of selftest criterion 6 on its default seed."""
    ps = PoleSet.of("0,1")
    rng = random.Random(DEFAULT_SEED * 100 + 6)
    pool = _letter_pool_omega(ps)
    tensors = [_rand_tensor(rng, pool) for _ in range(100)]
    words = sorted({w for t in tensors for w in t.terms}, key=word_sort_key)
    zs = [_rand_point(rng, ps) for _ in range(5)]
    path, marks = plan_chain(complex(default_basepoint(ps)), zs, ps)
    return ps, lambda letter: letter.f, words, None, path, marks


# systems whose levels are not full: eval_L words, and the omega pool
_PARTIAL_SYSTEMS = [
    ("0,1", ("1", "0", "0")), ("0,1", ("1", "1", "1")),
    ("0,1", ("0", "0", "1", "0")), ("0,1,-1", ("-1", "0", "0", "0", "0")),
    ("0,1,-1", ("0", "0", "1", "0", "0")), ("0,1,-1", ("1", "-1", "1")),
    ("omega", None)]


@pytest.mark.parametrize("poles,word", _PARTIAL_SYSTEMS)
def test_partial_systems_run_the_reference_kernel_bit_for_bit(poles, word):
    # systems whose top level is not full (the eval_L systems, and the
    # sparse omega pool) pick their rows from the per-level GEMM and read
    # the top from the thin product; the reference gathers and multiplies
    # row by row, so the two agree to rounding, at the endpoint and at
    # every capture
    ps, form_of, words, start, path, marks = (
        _omega_system() if word is None else _eval_l_system(poles, word))
    system = _WordSystem(words, form_of)
    assert system.levels[-1][4] is not None
    cfg = IntegratorConfig()
    vals, caps, _ = _integrate(path, words, ps, form_of, cfg,
                               capture_after=marks, start=start)
    y0 = (np.eye(1, system.n, dtype=complex)[0] if start is None else
          np.array([start[w] for w in system.words], dtype=complex))
    want, want_caps, _, _ = reference_run(system, y0, path, cfg,
                                          ps.as_complex, capture_after=marks)
    assert _near(np.array([vals[w] for w in system.words]), want)
    assert caps.keys() == want_caps.keys()
    for si, vec in want_caps.items():
        assert _near(np.array([caps[si][w] for w in system.words]), vec)


def _assert_runs_alike(system, y0, path, cfg, ps, capture_after=(),
                       trace=False):
    """_run and the reference level run give equal endpoint values,
    captures and trace rows, every bit."""
    got = _run(system, y0, path, cfg, ps.as_complex, capture_after, trace)
    want = reference_level_run(system, y0, path, cfg, ps.as_complex,
                               capture_after, trace)
    if trace:  # the pieces solved, splits included
        assert len(got[2]) % (_NODES - 1) == 0
    assert np.array_equal(got[0], want[0])
    assert got[1].keys() == want[1].keys()
    assert all(np.array_equal(got[1][si], vec) for si, vec in want[1].items())
    assert [t for t, _ in got[2]] == [t for t, _ in want[2]]
    assert all(np.array_equal(u, v) for (_, u), (_, v) in zip(got[2],
                                                               want[2]))
    return len(got[2]) // (_NODES - 1)


@pytest.mark.parametrize("label", ["0", "1", "-1"])
def test_a_run_is_the_reference_level_run_bit_for_bit(label):
    # views set up once per run against views sliced per piece: canonical
    # systems at weights 1 to 6 on a loop around each puncture, with
    # captures and traces, and at a tiny atol that splits tails, so that
    # halves run between the buffer swaps
    ps = PoleSet.of("0,1,-1")
    sec = Section.standard(ps)
    path = loop_around(ps, label, 0.5 + 0.5j).path
    marks = range(len(path.segments))
    planned = sum(len(_plan(seg, ps.as_complex, 1000))
                  for seg in path.segments)
    for weight in range(1, 7):
        system = _WordSystem.canonical(ps, weight,
                                       lambda lab: sec.form(lab).f)
        y0 = np.eye(1, system.n, dtype=complex)[0]
        for cfg in (IntegratorConfig(), IntegratorConfig(rtol=1e-14,
                                                         atol=1e-300)):
            _assert_runs_alike(system, y0, path, cfg, ps, marks)
            if weight in (1, 4):
                solved = _assert_runs_alike(system, y0, path, cfg, ps,
                                            marks, trace=True)
                # the tiny atol splits a tail at weight 4, not at 1
                tiny = cfg.atol == 1e-300
                assert (solved > planned) == (tiny and weight == 4)


@pytest.mark.parametrize("poles,word", _PARTIAL_SYSTEMS)
def test_partial_systems_are_the_reference_level_run_bit_for_bit(poles,
                                                                  word):
    # levels that pick their rows from the GEMM's scratch block, and a top
    # level that picks from its thin product, from a start and with a
    # capture after every leg; traced too, and at a tiny atol
    ps, form_of, words, start, path, marks = (
        _omega_system() if word is None else _eval_l_system(poles, word))
    system = _WordSystem(words, form_of)
    y0 = (np.eye(1, system.n, dtype=complex)[0] if start is None else
          np.array([start[w] for w in system.words], dtype=complex))
    for cfg in (IntegratorConfig(), IntegratorConfig(rtol=1e-14,
                                                     atol=1e-300)):
        _assert_runs_alike(system, y0, path, cfg, ps, marks)
    _assert_runs_alike(system, y0, path, IntegratorConfig(), ps, marks,
                       trace=True)


def test_trace_keeps_every_row_of_a_full_system():
    # a trace wants node values of the top level too, so that level runs
    # through the full product; its endpoint matches the thin one, on a
    # full top level and on the partial one of an eval_L system
    ps = PoleSet.of("0,1")
    letters = [dlog(ps, "0"), dlog(ps, "1")]
    words = [w for k in range(4) for w in itertools.product(letters, repeat=k)]
    path = Path.line(2, 4)
    assert _WordSystem(words, lambda d: d.f).levels[-1][4] is None
    vals, _, traced = integrate_words(path, words, ps, trace=True)
    thin, _, _ = integrate_words(path, words, ps)
    for w in words:
        assert abs(vals[w] - thin[w]) <= 1e-15 * max(1.0, abs(thin[w]))
    assert traced[-1][1] == vals
    top = (letters[0],) * 3
    for t, row in traced:
        assert row.keys() == vals.keys()
        assert abs(row[top] - math.log1p(t) ** 3 / 6) < 1e-12
    ps, form_of, words, start, path, _ = _eval_l_system("0,1,-1",
                                                        ("1", "-1", "1"))
    assert _WordSystem(words, form_of).levels[-1][4] is not None
    vals, _, traced = _integrate(path, words, ps, form_of, None, trace=True,
                                 start=start)
    thin, _, _ = _integrate(path, words, ps, form_of, None, start=start)
    assert _near(np.array([vals[w] for w in words]),
                 np.array([thin[w] for w in words]))
    assert traced[-1][1] == vals


def test_shuffle_identity_numeric():
    ps = PoleSet.of("0,1")
    a = ShuffleTensor.from_word((dlog(ps, "0"),))
    b = ShuffleTensor.from_word((dlog(ps, "1"), dlog(ps, "0")))
    res = shuffle_identity_check(Path.line(2 + 1j, 3 + 2j), a, b, ps)
    assert res < 1e-9


def test_chain_rule_numeric():
    word = (dlog(PS0, "0"), dlog(PS0, "0"))
    res = chain_rule_check(Path.line(1, 1 + 1j), Path.line(1 + 1j, 2), word,
                           PS0)
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


def test_the_antipode_tables_are_the_reversed_word_gather():
    # word_cuts' sign and rev, read off the tree, against the gather that
    # looked up each reversed word in a dict of the basis
    for m in range(1, 5):
        letters = tuple(str(i) for i in range(m))
        for weight in range(8):
            *_, sign, rev = iterint.word_cuts(letters, weight)
            want_sign, want_rev = reference_antipode_table(letters, weight)
            assert np.array_equal(rev, want_rev), (m, weight)
            assert sign.tobytes() == want_sign.tobytes(), (m, weight)
            assert not (sign.flags.writeable or rev.flags.writeable)
    assert [t.tolist() for t in iterint.word_cuts((), 5)[-2:]] == [[1.0], [0]]


def _table_bytes(table) -> int:
    return sum(a.nbytes for a in table if isinstance(a, np.ndarray))


def test_word_cuts_keeps_its_tables_within_one_cap_together(monkeypatch):
    cuts, letters = iterint.word_cuts, ("0", "1")
    size = {w: _table_bytes(cuts(letters, w)) for w in (3, 4, 5)}
    assert size[3] < size[4] < size[5]
    cuts.cache_clear()
    monkeypatch.setattr(iterint, "MATRIX_VIEW_MAX_BYTES", size[4] + size[5])
    try:
        t3, t4 = cuts(letters, 3), cuts(letters, 4)
        assert cuts(letters, 3) is t3  # a hit: 3 is now the most recent
        t5 = cuts(letters, 5)  # 3 + 4 + 5 pass the cap: 4, the oldest, goes
        assert cuts(letters, 3) is t3 and cuts(letters, 5) is t5
        again = cuts(letters, 4)  # rebuilt, and 3, now the oldest, goes
        assert again is not t4
        assert all(np.array_equal(a, b) for a, b in zip(again[1:7], t4[1:7]))
        assert cuts(letters, 5) is t5 and cuts(letters, 3) is not t3
        # a hit allocates nothing
        cuts(letters, 4)
        tracemalloc.start()
        try:
            for _ in range(100):
                cuts(letters, 4)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1024
        # under a cap below one table, the newest alone stays
        monkeypatch.setattr(iterint, "MATRIX_VIEW_MAX_BYTES", 1)
        t2 = cuts(letters, 2)
        assert cuts(letters, 2) is t2 and cuts(letters, 4) is not again
    finally:
        cuts.cache_clear()
