import cmath
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from curvelog import (
    QI,
    DomainError,
    HyperlogValue,
    PoleSet,
    ShuffleTensor,
    eval_L,
    eval_batch,
    expand_at,
    is_admissible,
    loop_around,
    mzv,
    reference_point,
    regularize,
    word_for_exponents,
    zero_label,
)
from curvelog.local_expansion import series_values

from oracles import LI2_HALF, LOG2, ZETA2, ZETA3, li2, li3, zeta

PS = PoleSet.of("0,1")


def test_zero_label_lookup():
    assert zero_label(PS) == "0"
    assert zero_label(PoleSet.of("1,0,2")) == "0"
    with pytest.raises(DomainError):
        zero_label(PoleSet.of("1,2"))


def test_admissibility():
    assert is_admissible(("1", "0"), PS)
    assert is_admissible((), PS)
    assert not is_admissible(("0", "1"), PS)


def test_regularize_trivial_cases():
    r = regularize(("1",), PS)
    assert r.parts == ((0, ShuffleTensor.from_word(("1",))),)
    assert r.max_log_power == 0
    r = regularize(("0",), PS)
    assert r.by_power == {1: ShuffleTensor.unit()}


def test_regularize_example():
    r = regularize(("0", "1"), PS)
    assert r.tensor(1) == ShuffleTensor.from_word(("1",))
    assert r.tensor(0) == ShuffleTensor.from_word(("1", "0"), -1)
    assert r.max_log_power == 1
    assert r.tensor(5).is_zero


def test_regularize_double_zero():
    r = regularize(("0", "0", "1"), PS)
    assert r.tensor(2) == ShuffleTensor.from_word(("1",), coeff="1/2")
    # every tensor in the split must be free of leading zeros
    for _, t in r.parts:
        for w in t.support():
            assert not w or w[0] != "0"


words01 = st.lists(st.sampled_from(["0", "1"]), max_size=4).map(tuple)


@given(words01)
def test_regularize_reassembles(word):
    assert regularize(word, PS).reassemble(PS) == ShuffleTensor.from_word(word)


def test_eval_log(tight):
    v = eval_L(("0",), 0.3, PS, cfg=tight)
    assert isinstance(v, HyperlogValue)
    assert v.path_class == "principal"
    assert abs(v.value - cmath.log(0.3)) < 1e-10
    assert abs(complex(v) - v.value) == 0.0
    # heading up-left from the reference point, the planned detour around the
    # origin bulges to the left of travel, i.e. below it, so the continued
    # logarithm lands one full turn under the principal branch
    v = eval_L(("0",), -0.4 + 0.1j, PS, cfg=tight)
    assert abs(v.value - (cmath.log(-0.4 + 0.1j) - 2j * math.pi)) < 1e-9


def test_eval_log_one_minus_z(tight):
    v = eval_L(("1",), 0.3, PS, cfg=tight)
    assert abs(v.value - math.log(0.7)) < 1e-10


def test_eval_dilog(tight):
    v = eval_L(("1", "0"), 0.5, PS, cfg=tight)
    assert abs(v.value - (-LI2_HALF)) < 1e-9
    z = 0.35 - 0.2j
    v = eval_L(("1", "0"), z, PS, cfg=tight)
    assert abs(v.value - (-li2(z))) < 1e-9


def test_eval_weight_three(tight):
    z = 0.45
    v = eval_L(("1", "0", "0"), z, PS, cfg=tight)
    assert abs(v.value - (-li3(z))) < 1e-9


def test_eval_divergent_word_uses_log_split(tight):
    # the word (0,1) carries one power of log z
    z = 0.3
    v = eval_L(("0", "1"), z, PS, cfg=tight)
    want = cmath.log(z) * math.log(1 - z) - (-li2(z))
    assert abs(v.value - want) < 1e-9


def test_eval_batch_matches_eval_L(tight):
    words = [("0",), ("1", "0")]
    pts = [0.3, 0.45 + 0.2j]
    rows = eval_batch(words, pts, PS, cfg=tight)
    assert len(rows) == 2
    for z, row in zip(pts, rows):
        for w in words:
            single = eval_L(w, z, PS, cfg=tight)
            assert abs(row[w] - single.value) < 1e-9


def test_eval_at_origin_rejected():
    with pytest.raises(DomainError):
        eval_L(("1",), 0.0, PS)
    with pytest.raises(DomainError):
        eval_batch([("1",)], [0.0], PS)


def test_non_finite_points_rejected():
    for z in (complex("nan"), complex("inf"), complex(0.5, float("nan"))):
        with pytest.raises(DomainError):
            eval_L(("0", "1"), z, PS)
        with pytest.raises(DomainError):
            eval_batch([("0", "1")], [0.3, z], PS)


def test_shuffle_law_at_a_point(tight):
    z = 0.3
    rows = eval_batch([("0",), ("1",), ("0", "1"), ("1", "0")], [z], PS,
                      cfg=tight)
    row = rows[0]
    lhs = row[("0",)] * row[("1",)]
    rhs = row[("0", "1")] + row[("1", "0")]
    assert abs(lhs - rhs) < 1e-9


def test_loop_continuation_shifts_log(tight):
    z = 0.3
    lp = loop_around(PS, "0", z)
    v = eval_L(("0",), z, PS, cfg=tight, loop=lp)
    assert v.path_class == "principal*ccw(0)"
    assert abs(v.value - (cmath.log(z) + 2j * math.pi)) < 1e-9
    with pytest.raises(DomainError):
        eval_L(("0",), 0.6, PS, loop=lp)  # loop based elsewhere


def test_mzv_weight_two():
    assert abs(mzv(("1", "0")) - (-ZETA2)) < 1e-10
    assert abs(mzv(("1", "0")) - (-zeta(2))) < 1e-10


def test_mzv_weight_three():
    assert abs(mzv(("1", "0", "0")) - (-ZETA3)) < 1e-10
    # the depth-two sum zeta(2,1) collapses to zeta(3)
    assert abs(mzv(("1", "1", "0")) - ZETA3) < 1e-10


def test_mzv_weight_four():
    # zeta(4) = pi^4 / 90
    want = math.pi ** 4 / 90.0
    assert abs(mzv(("1", "0", "0", "0")) - (-want)) < 1e-9


def test_mzv_edge_cases():
    assert mzv(()) == 1.0
    with pytest.raises(DomainError):
        mzv(("1", "1"))
    with pytest.raises(DomainError):
        mzv(("2", "0"))


def test_word_for_exponents():
    assert word_for_exponents((2,)) == ("1", "0")
    assert word_for_exponents((3,)) == ("1", "0", "0")
    assert word_for_exponents((2, 1)) == ("1", "1", "0")
    assert word_for_exponents([3, 2]) == ("1", "0", "1", "0", "0")
    with pytest.raises(DomainError):
        word_for_exponents(())
    with pytest.raises(DomainError):
        word_for_exponents((0,))


def test_mzv_against_exponent_encoding():
    # depth one: mzv gives (-1)^1 * zeta(k)
    for k, ref in ((2, ZETA2), (3, ZETA3)):
        got = mzv(word_for_exponents((k,)))
        assert abs(got + ref) < 1e-10


def test_mzv_shuffle_relation():
    # zeta(2)^2 expands through the shuffle of (1,0) with itself:
    # [10] sh [10] = 2[1010] + 4[1100]
    z2 = mzv(("1", "0"))
    lhs = z2 * z2
    rhs = 2 * mzv(("1", "0", "1", "0")) + 4 * mzv(("1", "1", "0", "0"))
    assert abs(lhs - rhs) < 1e-9


def test_log2_via_hyperlog(tight):
    # L at the point 1/2 for the single letter 1 is log(1/2)
    v = eval_L(("1",), 0.5, PS, cfg=tight)
    assert abs(v.value + LOG2) < 1e-10


# The reference engines below are the loop recurrences the package used
# before its single dense series engine: a Taylor recurrence at the origin
# (one explicit convolution with the geometric series of each letter away
# from the origin, then termwise integration) and a sparse (j, k) map
# recurrence for log-Laurent series at any center.

def _taylor_reference(word, ps, terms, cache):
    out = {}
    for k in range(len(word) + 1):
        prefix = word[:k]
        if prefix in cache:
            out[prefix] = cache[prefix]
            continue
        prev = cache[word[:k - 1]]
        new = [0j] * (terms + 1)
        if prefix[-1] == zero_label(ps):
            for m in range(1, terms + 1):
                new[m] = prev[m] / m
        else:
            inv = 1.0 / complex(ps.points[ps.index(prefix[-1])])
            geom = [-(inv ** (b + 1)) for b in range(terms)]
            for m in range(terms):
                acc = 0j
                for a in range(m + 1):
                    acc += prev[a] * geom[m - a]
                new[m + 1] = acc / (m + 1)
        cache[prefix] = new
        out[prefix] = new
    return out


def _horner(coeffs, z):
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def _laurent_reference(word, ps, center, order, x_ref, vals_ref):
    cur = {(0, 0): 1.0 + 0j}
    for n, lab in enumerate(word):
        p = ps.points[ps.index(lab)]
        if p == center:
            letter = {-1: 1.0 + 0j}
        else:
            inv = 1.0 / complex(center - p)
            letter = {m: -((-inv) ** (m + 1)) for m in range(order + 1)}
        prod: dict = {}
        for (j, k), c in cur.items():
            for m, g in letter.items():
                if j + m <= order:
                    prod[(j + m, k)] = prod.get((j + m, k), 0j) + c * g
        cur = {}
        for (j, k), c in prod.items():
            if j == -1:
                cur[(0, k + 1)] = cur.get((0, k + 1), 0j) + c / (k + 1)
                continue
            if j + 1 > order:
                continue
            fall = 1.0
            for m in range(k + 1):
                if m > 0:
                    fall *= k - m + 1
                key = (j + 1, k - m)
                cur[key] = (cur.get(key, 0j)
                            + c * (-1) ** m * fall / (j + 1) ** (m + 1))
        lx = cmath.log(x_ref)
        approx = sum(c * x_ref ** j * lx ** k for (j, k), c in cur.items())
        cur[(0, 0)] = cur.get((0, 0), 0j) + vals_ref[word[:n + 1]] - approx
    return cur


def _eval_point_words(ps):
    """The eval-points benchmark families over every letter away from the
    origin: polylog (a, 0^(n-1)), power a^n and leading zeros
    (0^k, a, 0^(n-1-k)) with k = n // 2, for weights 2 to 6."""
    words = []
    for n in range(2, 7):
        for a in ps.labels:
            if a != "0":
                words += [(a,) + ("0",) * (n - 1), (a,) * n,
                          ("0",) * (n // 2) + (a,) + ("0",) * (n - 1 - n // 2)]
    return words


@pytest.mark.parametrize("poles", ["0,1", "0,1,-1", "0,1,-1,i"])
def test_series_engine_matches_the_taylor_recurrence(poles):
    ps = PoleSet.of(poles)
    z1 = reference_point(ps)
    admissible = set()
    for w in _eval_point_words(ps):
        for _, t in regularize(w, ps).parts:
            admissible.update(t.terms)
    got = series_values(admissible, ps, z1, 80)
    cache = {(): [1.0 + 0j] + [0j] * 80}
    checked = 0
    for w in admissible:
        for prefix, coeffs in _taylor_reference(w, ps, 80, cache).items():
            want = _horner(coeffs, z1)
            assert abs(got[prefix] - want) <= 1e-14 * abs(want), prefix
            checked += 1
    assert checked > len(admissible)


def test_series_engine_matches_the_laurent_recurrence_at_one():
    ps = PoleSet.of("0,1")
    order = 24
    radius = 0.5
    x_ref = radius / 2
    z_chk = 1 + 0.45 * radius * cmath.exp(0.25j * math.pi)
    for w in _eval_point_words(ps):
        prefixes = [w[:k] for k in range(1, len(w) + 1)]
        vals_ref, _ = eval_batch(prefixes, [1 + x_ref, z_chk], ps)
        want = _laurent_reference(w, ps, QI.of(1), order, x_ref, vals_ref)
        got = expand_at(w, ps, 1, order=order).coeffs
        scale = max(abs(c) for c in want.values())
        for key in set(want) | set(got):
            diff = abs(got.get(key, 0j) - want.get(key, 0j))
            assert diff <= 1e-14 * scale, (w, key)
