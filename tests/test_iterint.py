import cmath
import itertools
import json
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from curvelog import (
    ArcSeg,
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
    plan_path,
    regularize,
)

from curvelog.hyperlog import _SERIES_TERMS, reference_point
from curvelog.iterint import (_WordSystem, _integrate, plan_chain,
                              retraced_tail)
from curvelog.local_expansion import series_values
from curvelog.reduce import default_basepoint
from curvelog.selftest import (DEFAULT_SEED, _letter_pool_omega,
                               _rand_point, _rand_tensor, chain_rule_check,
                               kz_specialization_check,
                               shuffle_identity_check)
from curvelog.shuffle_core import word_sort_key
from oracles import LOG2
from series_checks import (grouplike_residual, reference_integrate,
                           reference_run, section_change)

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
    from curvelog import iterint

    def never(*args, **kwargs):
        raise AssertionError("an empty path built or ran a word system")

    sec = Section.standard(PS3)
    start = (series_values(H_WORDS, PS3, EMPTY.base, _SERIES_TERMS)
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


def test_unreachable_tolerance_fails_promptly():
    # with the default budget too: bisection stops at the resolution of t
    for cfg in (IntegratorConfig(rtol=1e-300, atol=1e-300, max_steps=500),
                IntegratorConfig(rtol=1e-300, atol=1e-300)):
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
    sec = Section.standard(PS0)
    with pytest.raises(DomainError):
        j_element(Path.line(1, 2), sec, -1)
    assert j_element(Path.line(1, 2), sec, 0).vector.tolist() == [1]


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


def test_j_element_agrees_with_the_reference_kernel():
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
                j_element(path, sec, weight,
                          IntegratorConfig(rtol=rtol, max_steps=count))
                short = IntegratorConfig(rtol=rtol, max_steps=count - 1)
                with pytest.raises(NumericError):
                    j_element(path, sec, weight, short)
                with pytest.raises(NumericError):
                    reference_run(system, y0, head, short, ps.as_complex)


def _eval_l_system(poles, word):
    """An eval_L system: the admissible words of ``word`` from their Taylor
    values at the reference point, along a chain captured after each leg."""
    ps = PoleSet.of(poles)
    sec = Section.standard(ps)
    admissible = {u for _, t in regularize(word, ps).parts for u in t.terms}
    z1 = reference_point(ps)
    start = series_values(admissible | {("0",)}, ps, z1, _SERIES_TERMS)
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


@pytest.mark.parametrize("poles,word", [
    ("0,1", ("1", "0", "0")), ("0,1", ("1", "1", "1")),
    ("0,1", ("0", "0", "1", "0")), ("0,1,-1", ("-1", "0", "0", "0", "0")),
    ("0,1,-1", ("0", "0", "1", "0", "0")), ("0,1,-1", ("1", "-1", "1")),
    ("omega", None)])
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
