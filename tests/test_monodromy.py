import math
import random
import re
import time
import tracemalloc
import types
from dataclasses import replace

import numpy as np
import pytest

from curvelog import (
    BudgetError,
    DomainError,
    GroupLikeSeries,
    IntegratorConfig,
    Loop,
    PathError,
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
    word_sort_key,
)
import curvelog
from curvelog import iterint
from curvelog.iterint import MATRIX_VIEW_MAX_BYTES, count_words
from series_checks import grouplike_residual, reference_unipotence_residual

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


@pytest.mark.parametrize("radius", [math.nan, math.inf, -math.inf])
def test_a_non_finite_radius_is_refused(ps, radius):
    with pytest.raises(DomainError, match="finite"):
        circle_loop(ps, "1", radius=radius)
    with pytest.raises(DomainError, match="finite"):
        loop_around(ps, "1", 0.5 + 0.5j, radius=radius)


def test_weight_one_pairing_is_residue(ps, sec):
    series = pairing(circle_loop(ps, "0"), sec, weight=1)
    assert abs(series.values[("0",)] - TWO_PI_I) < 1e-9
    assert abs(series.values[("1",)]) < 1e-9


def test_weight_two_pairing(ps, sec):
    series = pairing(circle_loop(ps, "0"), sec, weight=2)
    assert abs(series.values[("0", "0")] - TWO_PI_I ** 2 / 2) < 1e-8
    assert grouplike_residual(series) < 1e-8


def test_loop_around_far_base_shrinks(ps, sec):
    base = 0.5 + 0j
    lp = loop_around(ps, "0", base)
    assert abs(lp.path.base - base) < 1e-12
    assert abs(lp.path.end - base) < 1e-12
    series = pairing(lp, sec, weight=1)
    assert abs(series.values[("0",)] - TWO_PI_I) < 1e-9


def test_monodromy_operator_weight_one(ps, sec):
    op = monodromy_operator(circle_loop(ps, "0"), sec, weight=1)
    assert op.basis == tuple(label_words(ps, 1))
    m = op.matrix
    assert abs(op.values[()] - 1) < 1e-12
    assert abs(op.values[("0",)] - TWO_PI_I) < 1e-9
    assert abs(m[1, 1] - 1) < 1e-9 and m[1, 0] == op.values[("0",)]
    assert abs(op.values[("1",)]) < 1e-9
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
    assert unipotence_check(op)


def test_the_operator_is_the_series(ps, sec):
    op = monodromy_operator(circle_loop(ps, "0"), sec, weight=2)
    assert type(op) is GroupLikeSeries
    assert curvelog.monodromy.MonodromyOperator is GroupLikeSeries
    assert "MonodromyOperator" not in curvelog.__all__
    for gone in ("series", "convolve", "value", "_cuts"):
        assert not hasattr(op, gone)


def test_star_import_binds_no_module():
    names = {}
    exec("from curvelog import *", names)
    assert not [k for k, v in names.items() if isinstance(v, types.ModuleType)]
    assert set(names) - {"__builtins__"} == set(curvelog.__all__)


def test_operator_antipode_is_the_reversed_loop():
    # the antipode against the reversed loop integrated on its own, and
    # m @ m.inverse() against the unit, on the series' scale
    ps3 = PoleSet.of("0,1,-1")
    sec3 = Section.standard(ps3)
    for s in ps3.labels:
        for g in (loop_around(ps3, s, 0.5 + 0.5j), circle_loop(ps3, s)):
            for weight in range(1, 7):
                m = monodromy_operator(g, sec3, weight)
                want = monodromy_operator(g.inverse(), sec3, weight).vector
                got = m.inverse().vector
                assert (np.abs(got - want).max()
                        <= 1e-13 * max(1.0, np.abs(want).max()))
                unit = np.eye(1, len(m.vector), dtype=complex)[0]
                scale = max(1.0, np.abs(m.vector).max())
                for both in (m @ m.inverse(), m.inverse() @ m):
                    assert np.abs(both.vector - unit).max() <= 1e-13 * scale


def test_unipotence_residual_builds_no_dense_array():
    # weight 7 on three letters, whose dense operator is 172 MB: the
    # residual holds a few series vectors and the cut table
    n = 3280
    unit = GroupLikeSeries(7, ("0", "1", "-1"),
                           np.eye(1, n, dtype=complex)[0])
    iterint.word_cuts.cache_clear()
    tracemalloc.start()
    try:
        start = time.perf_counter()
        residual = unit.unipotence_residual()
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert residual == 0.0
    assert elapsed < 1.0
    assert peak < 8 * 2 ** 20


def test_a_hand_built_series_over_the_cap_is_refused_when_built():
    # one letter at weight 5000: 5001 words but 12,507,501 cuts, 286 MiB
    # of cut table, refused before word_cuts builds any of it
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError, match="MiB array cap"):
            GroupLikeSeries(5000, ("0",), np.ones(5001, dtype=complex))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


@pytest.mark.parametrize("weight, letters", [(100_000, ()), (1000, ("0",))])
def test_unipotence_residual_takes_its_power_by_squaring(weight, letters):
    # a letterless basis is the empty word alone at any weight, and one
    # letter at weight 1000 has about 500,000 cuts: about 2 log2(weight + 1)
    # cut sums, not weight of them
    n = count_words(len(letters), weight)[0]
    series = GroupLikeSeries(weight, letters, np.eye(1, n, dtype=complex)[0]
                             + 0.5 * np.arange(n) / n)
    start = time.perf_counter()
    residual = series.unipotence_residual()
    elapsed = time.perf_counter() - start
    assert residual == 0.0
    assert elapsed < 1.0


def test_unipotence_residual_is_the_dense_one():
    # seeded loop operators, and copies corrupted on the empty word or by a
    # non-finite entry, against the dense matrix power it replaced
    ps3 = PoleSet.of("0,1,-1")
    sec3 = Section.standard(ps3)
    rng = random.Random(39)
    for weight in range(1, 6):
        for label in ps3.labels:
            base = complex(rng.uniform(-0.9, 0.9), rng.uniform(0.3, 0.9))
            op = monodromy_operator(loop_around(ps3, label, base), sec3,
                                    weight)
            assert op.unipotence_residual() == 0.0
            assert reference_unipotence_residual(op) == 0.0
            for value in (2.0, 1 + 1e-16j):
                bad = corrupted(op, {(): value})
                got = bad.unipotence_residual()
                want = reference_unipotence_residual(bad)
                assert got > 0 and abs(got - want) <= 1e-12 * want
            for value in (np.nan, np.inf):  # inf times a zero is NaN
                bad = corrupted(op, {op.basis[-1]: value})
                with np.errstate(invalid="ignore"):
                    assert math.isnan(bad.unipotence_residual())
                    assert math.isnan(reference_unipotence_residual(bad))


def corrupted(op, values: dict):
    """A copy of op's series with the given word values."""
    vector = op.vector.copy()
    for word, value in values.items():
        vector[op.basis.index(word)] = value
    return replace(op, vector=vector)


def dense_unitriangular(m, basis) -> bool:
    """The dense check the operator once made on its matrix: every entry
    finite, the diagonal exactly 1 and nothing off the suffix pattern."""
    index = {w: i for i, w in enumerate(basis)}
    word, suffix = zip(*[(index[w], index[w[k:]]) for w in basis
                         for k in range(len(w) + 1)])
    off = np.ones(m.shape, dtype=bool)
    off[list(word), list(suffix)] = False
    return bool(np.all(np.isfinite(m)) and np.all(np.diagonal(m) == 1)
                and np.all(m[off] == 0))


def test_unipotence_negative_control(ps, sec):
    op = monodromy_operator(circle_loop(ps, "0"), sec, weight=1)
    bad = corrupted(op, {(): 2.0})  # not unit on the diagonal
    assert not unipotence_check(bad)
    assert bad.unipotence_residual() > 0
    assert unipotence_check(op) and op.values[()] == 1


def test_non_finite_entries_are_rejected(ps, sec):
    op = monodromy_operator(circle_loop(ps, "0"), sec, weight=2)
    for bad in (corrupted(op, {("0",): np.nan}),
                corrupted(op, {("1", "0"): np.inf})):
        assert not unipotence_check(bad)


def test_dense_reference_check_agrees_with_unipotence_check(ps, sec):
    ops = [monodromy_operator(circle_loop(ps, lab), sec, weight=2)
           for lab in ps.labels]
    ops += [corrupted(ops[0], {(): 2.0}), corrupted(ops[1], {(): 1 + 1e-16j}),
            corrupted(ops[0], {("0",): np.nan}),
            corrupted(ops[1], {("1", "0"): np.inf})]
    verdicts = [unipotence_check(op) for op in ops]
    assert verdicts == [True, True, False, False, False, False]
    for op, verdict in zip(ops, verdicts):
        assert dense_unitriangular(op.matrix, op.basis) == verdict


def test_operator_shape_validation(ps, sec):
    a, b = (monodromy_operator(circle_loop(ps, "0"), sec, weight=w)
            for w in (1, 2))
    with pytest.raises(DomainError):
        a @ b
    i, j = a.basis.index(("0",)), a.basis.index(("1",))
    assert a.matrix[i, i] == 1 and a.matrix[i, j] == 0
    # a series vector is over its whole canonical basis, and series over
    # other letters do not compose
    with pytest.raises(DomainError):
        replace(a, vector=a.vector[:-1])
    with pytest.raises(DomainError):
        a @ replace(a, letters=("0", "2"))


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


def dense_reference(series, ps):
    """The dense assembly the operator once used: row w collects the loop
    value of every prefix u at the column of the suffix v, w = u v."""
    basis = label_words(ps, series.weight)
    index = {w: i for i, w in enumerate(basis)}
    m = np.zeros((len(basis), len(basis)), dtype=complex)
    for w in basis:
        for k in range(len(w) + 1):
            m[index[w], index[w[k:]]] += series.values[w[:k]]
    return m


def test_series_operator_matches_the_dense_reference():
    ps3 = PoleSet.of("0,1,-1")
    sec3 = Section.standard(ps3)
    base = 0.5 + 0.5j
    loops = (loop_around(ps3, "0", base), loop_around(ps3, "-1", base))
    m0, m1 = (monodromy_operator(g, sec3, weight=4) for g in loops)
    assert m0.basis == tuple(sorted(m0.basis, key=word_sort_key))
    refs = [dense_reference(m, ps3) for m in (m0, m1)]
    for m, ref in zip((m0, m1), refs):
        assert np.array_equal(m.matrix, ref)
        for i, w in enumerate(m.basis):
            for j, v in enumerate(m.basis):
                k = len(w) - len(v)
                want = m.values[w[:k]] if k >= 0 and w[k:] == v else 0j
                assert want == ref[i, j]
    product = refs[0] @ refs[1]
    scale = np.max(np.abs(product))
    assert np.max(np.abs((m0 @ m1).matrix - product)) <= 1e-14 * scale
    vec = {w: (0.3 - 0.2j) ** len(w) * (1 + i % 3) for i, w in
           enumerate(m0.basis)}
    want = refs[0] @ np.array([vec[w] for w in m0.basis])
    moved = m0.act(vec)
    got = np.array([moved[w] for w in m0.basis])
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_weight_eight_operator_builds_no_dense_matrix():
    ps3 = PoleSet.of("0,1,-1")
    sec3 = Section.standard(ps3)
    base = 0.5 + 0.5j
    n = len(label_words(ps3, 8))
    assert n == 9841
    tracemalloc.start()
    try:
        m0 = monodromy_operator(loop_around(ps3, "0", base), sec3, weight=8)
        m1 = monodromy_operator(loop_around(ps3, "1", base), sec3, weight=8)
        both = m0 @ m1
        moved = both.act({w: 1.0 for w in both.basis})
        ok = unipotence_check(both) and unipotence_check(m0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ok
    assert len(moved) == n
    for op in (m0, m1, both):
        assert "matrix" not in vars(op)
    assert peak < n * n * 16 / 20
    with pytest.raises(DomainError):
        both.matrix


def test_dense_view_is_built_on_each_read_and_not_kept():
    ps3 = PoleSet.of("0,1,-1")
    op = monodromy_operator(loop_around(ps3, "1", 0.5 + 0.5j),
                            Section.standard(ps3), weight=5)
    first, second = op.matrix, op.matrix
    assert "matrix" not in vars(op)
    assert first is not second and np.array_equal(first, second)
    assert first.shape == (364, 364)


def test_matrix_view_budget():
    # weight 7 on three letters is the largest benchmark view: 172 MB
    assert count_words(3, 7)[0] == 3280
    assert 16 * 3280 ** 2 <= MATRIX_VIEW_MAX_BYTES
    assert count_words(0, 10 ** 9)[0] == 1
    ps3 = PoleSet.of("0,1,-1")
    op = monodromy_operator(circle_loop(ps3, "0"), Section.standard(ps3),
                            weight=8)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError, match=re.escape(
                "a dense operator on 9.84e+03 words exceeds the 256 MiB "
                "array cap")):
            op.matrix
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


@pytest.mark.parametrize("poles, weight", [("0,1,-1", 12), ("0,1", 40)])
def test_series_over_the_array_cap_is_refused_before_building(
        monkeypatch, poles, weight):
    ps2 = PoleSet.of(poles)
    sec2 = Section.standard(ps2)

    def never(*args, **kwargs):
        raise AssertionError("built the word basis over the cap")

    monkeypatch.setattr(iterint, "word_cuts", never)
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match="MiB array cap"):
            pairing(circle_loop(ps2, "0"), sec2, weight=weight)
        with pytest.raises(DomainError, match="MiB array cap"):
            label_words(ps2, weight)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


@pytest.mark.parametrize("call, error, message", [
    (lambda ps: circle_loop(ps, "0", turns=0), DomainError,
     "a zero-turn circle is not a loop"),
    (lambda ps: circle_loop(ps, "0", radius=0.0), DomainError,
     "loop radius must be positive"),
    (lambda ps: circle_loop(ps, "0", radius=-0.25), DomainError,
     "loop radius must be positive"),
    (lambda ps: circle_loop(ps, "0", radius=0.5 * ps.guard), DomainError,
     "loop radius falls inside the puncture guard zone"),
    (lambda ps: loop_around(ps, "1", 0.5, turns=0), DomainError,
     "a zero-turn loop is trivial; refuse to build it"),
    (lambda ps: loop_around(ps, "1", 1), PathError,
     "cannot base a loop at the puncture it encircles"),
], ids=["circle-of-no-turn", "circle-of-radius-zero",
        "circle-of-negative-radius", "circle-inside-the-guard",
        "loop-of-no-turn", "loop-based-on-its-puncture"])
def test_a_loop_refusal_names_its_cause(ps, call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call(ps)
