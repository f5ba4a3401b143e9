import cmath
import functools
import itertools
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from curvelog import (
    QI,
    BudgetError,
    DomainError,
    HyperlogValue,
    PathError,
    PoleSet,
    Section,
    ShuffleTensor,
    eval_L,
    eval_batch,
    expand_at,
    integrate_h_words,
    loop_around,
    mzv,
    reference_point,
    regularize,
    word_for_exponents,
    zero_label,
)
from curvelog import hyperlog, iterint
from curvelog.errors import CurvelogError
from curvelog.iterint import ArcSeg, Path, _detours, plan_chain, plan_path
from curvelog.local_expansion import series_values

from oracles import LI2_HALF, LOG2, ZETA2, ZETA3, li2, li3, zeta
from series_checks import (reassemble, reference_chord_turns,
                           reference_evaluate, reference_integrate,
                           reference_leg_start, reference_mzv,
                           reference_series_values, reference_start,
                           reference_start_values)

PS = PoleSet.of("0,1")


def test_zero_label_lookup():
    assert zero_label(PS) == "0"
    assert zero_label(PoleSet.of("1,0,2")) == "0"
    with pytest.raises(DomainError):
        zero_label(PoleSet.of("1,2"))


def test_admissibility():
    # an admissible word (empty, or led by a letter away from the origin)
    # is its own single part at log power 0; one led by the zero letter is not
    def own_part(word):
        return regularize(word, PS).parts == (
            (0, ShuffleTensor.from_word(word)),)

    assert own_part(("1", "0"))
    assert own_part(())
    assert not own_part(("0", "1"))


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


def test_regularize_long_zero_runs_promptly():
    # z^(12-i) shuffled with z^12 is one word; a shuffle that enumerates
    # all C(24, 12) interleavings takes seconds here
    word = ("0",) * 12 + ("1",) + ("0",) * 12
    start = time.perf_counter()
    r = regularize(word, PS)
    assert time.perf_counter() - start < 1.0
    assert r.max_log_power == 12
    for i in range(13):
        c = QI.of((-1) ** (12 - i) * math.comb(24 - i, 12)) / math.factorial(i)
        assert r.tensor(i) == ShuffleTensor.from_word(
            ("1",) + ("0",) * (24 - i), c)


def test_regularize_reads_every_zero_shuffle_off_one_table():
    # one table over the suffix pairs of z^40 and v holds every z^k ш v;
    # building a fresh table for each log power costs about ten times more
    word = ("0",) * 40 + ("1",) + ("0",) * 40
    start = time.perf_counter()
    r = regularize(word, PS)
    assert time.perf_counter() - start < 1.0
    assert r.max_log_power == 40
    for i in (0, 1, 39, 40):
        c = QI.of((-1) ** (40 - i) * math.comb(80 - i, 40)) / math.factorial(i)
        assert r.tensor(i) == ShuffleTensor.from_word(
            ("1",) + ("0",) * (80 - i), c)


words01 = st.lists(st.sampled_from(["0", "1"]), max_size=4).map(tuple)


@given(words01)
def test_regularize_reassembles(word):
    assert reassemble(regularize(word, PS), PS) == ShuffleTensor.from_word(word)


def test_many_zeros_at_a_huge_point_do_not_overflow():
    # log(1e300)^120 overflows a float; the 1/120! must apply first
    v = eval_L(("0",) * 120, 1e300, PS).value
    want = math.exp(120 * math.log(math.log(1e300)) - math.lgamma(121))
    assert abs(v - want) <= 1e-10 * want


def test_a_long_zero_word_needs_no_recursion():
    # 1200 leading zeros: log(1/2)^1200 / 1200! underflows to zero
    v = eval_L(("0",) * 1200, 0.5, "0,1").value
    assert abs(v) < 1e-300


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
    # refused as not finite, not as past the modulus bound
    for z in (complex("nan"), complex("inf"), complex("-inf"),
              complex(0.5, float("nan")), complex(0.001, float("nan"))):
        with pytest.raises(DomainError, match="an end is not finite"):
            eval_L(("0", "1"), z, PS)
        with pytest.raises(DomainError, match="an end is not finite"):
            eval_batch([("0", "1")], [0.3, z], PS)


def test_huge_finite_point_is_evaluated():
    # the planned path passes above the puncture 1, so the value sits on the
    # sheet of log(z - 1) - i*pi
    z = 1e12
    want = cmath.log(z - 1) - 1j * math.pi
    assert abs(eval_L(("1",), z, PS).value - want) <= 1e-12 * abs(want)


def test_extreme_finite_point_finishes_promptly():
    z = 1e300
    start = time.perf_counter()
    try:
        value = eval_L(("1",), z, PS).value
    except DomainError:
        value = None
    assert time.perf_counter() - start < 1.0
    if value is not None:
        want = cmath.log(z) - 1j * math.pi
        assert abs(value - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("z", [0.3, -0.7 + 0.2j, 2.5 + 0.5j])
def test_dilog_at_the_default_config_matches_mpmath(z):
    want = -complex(mpmath.polylog(2, mpmath.mpc(z)))
    assert abs(eval_L(("1", "0"), z, PS).value - want) <= 1e-13


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


def test_mzv_matches_closed_forms_through_weight_eight():
    # (-1)^depth times zeta(3,1) = pi^4/360, zeta({2}^n) = pi^2n/(2n+1)!
    # and zeta({3,1}^n) = 2 pi^4n/(4n+2)!, with no imaginary part at all
    with mpmath.workdps(30):
        pi = mpmath.pi
        forms = [((3, 1), pi ** 4 / 360)]
        forms += [((2,) * n, pi ** (2 * n) / mpmath.factorial(2 * n + 1))
                  for n in range(1, 5)]
        forms += [((3, 1) * n, 2 * pi ** (4 * n) / mpmath.factorial(4 * n + 2))
                  for n in range(1, 3)]
        for ks, want in forms:
            got = mzv(word_for_exponents(ks)) * (-1) ** len(ks)
            assert got.imag == 0, ks
            assert abs(got.real - want) <= 1e-15 * want, ks


def test_mzv_satisfies_duality():
    # z -> 1 - z reverses a convergent word and swaps its letters
    swap = {"0": "1", "1": "0"}
    for n in range(2, 8):
        for mid in itertools.product("01", repeat=n - 2):
            w = ("1",) + mid + ("0",)
            dual = tuple(swap[lab] for lab in reversed(w))
            v = mzv(w)
            assert abs(v - (-1) ** n * mzv(dual)) <= 1e-15 * max(1, abs(v)), w


def test_mzv_matches_the_expansion_at_one():
    # the constant term of the local expansion at one, matched against the
    # integrator, is the reference for the convolution at one half
    rng = random.Random(15)
    for _ in range(24):
        n = rng.randint(1, 6)
        w = tuple(rng.choice("01") for _ in range(n - 1)) + ("0",)
        want = expand_at(w, "0,1", 1, order=30).coeff(0, 0)
        assert abs(mzv(w) - want) <= 1e-13 * max(1, abs(want)), w


def test_mzv_is_the_tau_route_bit_for_bit():
    # the series of v reversed at one replaced the series of tau(v) at the
    # origin; every convergent word to weight 10, with no imaginary part
    count = 0
    for n in range(11):
        for w in itertools.product("01", repeat=n):
            if w[-1:] != ("1",):
                got = mzv(w)
                assert got == reference_mzv(w) and got.imag == 0, w
                count += 1
    assert count == 1024


def _at_minus_one(word):
    """A word's value at -1 over {0, 1, -1} by the sum mzv makes at one:
    the series at 0 summed at -1/2 against the series of its reversed
    cuts at -1 summed at +1/2."""
    ps = PoleSet.of("0,1,-1")
    n, rev = len(word), word[::-1]
    head = series_values([word], ps, -0.5)
    tail = series_values([rev], ps, 0.5, center=-1)
    return sum((head[word[:k]] * (-1) ** (n - k) * tail[rev[:n - k]]
                for k in range(n + 1)), 0j)


def test_euler_sums_at_minus_one_from_two_centers():
    # -Li_s(-1) = (1 - 2^(1-s)) zeta(s); the depth-two sums are
    # sum_n (-1)^n H2(n-1) / n^a with H2(n-1) = zeta(2) - zeta(2, n)
    with mpmath.workdps(30):
        forms = [(("1",) + ("0",) * (s - 1),
                  (1 - mpmath.mpf(2) ** (1 - s)) * mpmath.zeta(s))
                 for s in range(2, 7)]
        for word, a in ((("1", "0", "1", "0"), 2),
                        (("1", "0", "1", "0", "0"), 3)):
            forms.append((word, mpmath.nsum(
                lambda n: (-1) ** n * (mpmath.zeta(2) - mpmath.zeta(2, n))
                / n ** a, [1, mpmath.inf])))
        for word, want in forms:
            got = _at_minus_one(word)
            assert got.imag == 0, word
            assert abs(got.real - want) <= 1e-15 * abs(want), word


def test_a_word_past_the_prefix_budget_is_refused_before_any_work():
    # 20,000 letters: 1.6 GB of prefix tuples, refused at once
    word = ("1",) + ("0",) * 19_999
    t = time.perf_counter()
    with pytest.raises(BudgetError, match="MiB array cap"):
        mzv(word)
    assert time.perf_counter() - t < 1.0


def test_a_thousand_letter_word_evaluates_in_a_second():
    # eval_L hands the prefix closure every prefix of the word; each stops
    # at its longest prefix already there, so none is sliced n times
    word = ("1",) + ("0",) * 999
    t = time.perf_counter()
    value = eval_L(word, 0.5, "0,1").value
    assert time.perf_counter() - t < 1.0
    # -Li_1000(1/2), which is -1/2 to double precision
    assert abs(value + 0.5) <= 1e-15


def test_mzv_holds_one_prefix_set_at_a_time():
    # the head's values are read into a list before the reversed word's
    # prefixes are built, so the peak rise stays near one prefix set of
    # 4 n (n + 1) bytes (8 bytes a letter of each prefix tuple).  The peak
    # is the child's own VmHWM: its ru_maxrss starts at the forking
    # process's resident set, which would hide the rise.
    if not os.path.exists("/proc/self/status"):
        pytest.skip("needs /proc/self/status for the peak resident set")
    n = 3000
    script = (
        "from curvelog import mzv\n"
        "def peak():\n"
        "    for line in open('/proc/self/status'):\n"
        "        if line.startswith('VmHWM:'):\n"
        "            return 1024 * int(line.split()[1])\n"
        "mzv(('1', '0'))\n"
        "before = peak()\n"
        f"mzv(('1',) + ('0',) * {n - 1})\n"
        "print(peak() - before)\n")
    src = os.path.dirname(os.path.dirname(hyperlog.__file__))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, check=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert int(proc.stdout) < 1.5 * 4 * n * (n + 1)


def test_mzv_needs_no_integrator(monkeypatch):
    from curvelog import iterint

    def never(*args, **kwargs):
        raise AssertionError("mzv ran the integrator")

    monkeypatch.setattr(iterint, "_run", never)
    want = float(mpmath.zeta(9))
    assert abs(mzv(word_for_exponents((9,))) + want) <= 1e-15 * want


def test_word_for_exponents():
    assert word_for_exponents((2,)) == ("1", "0")
    assert word_for_exponents((3,)) == ("1", "0", "0")
    assert word_for_exponents((2, 1)) == ("1", "1", "0")
    assert word_for_exponents([3, 2]) == ("1", "0", "1", "0", "0")
    with pytest.raises(DomainError):
        word_for_exponents(())
    with pytest.raises(DomainError):
        word_for_exponents((0,))


@pytest.mark.parametrize("ks", [(2.5,), (100_000.5,), (3, 0.5), ("2",),
                                (math.inf,), (math.nan,), (2.0,),
                                (Fraction(2),)])
def test_word_for_exponents_refuses_a_non_integral_exponent(ks):
    # int() would truncate 2.5 to the word for zeta(2); an integral float or
    # Fraction is refused as expand_at's order and a series weight are
    with pytest.raises(DomainError) as info:
        word_for_exponents(ks)
    assert type(info.value) is DomainError


def test_word_for_exponents_has_a_size_budget():
    # a word of n letters is refused, before it is built, when its prefix
    # set (4 n (n + 1) bytes) would pass the cap: n = 8,191 fits the 256 MiB
    # cap and n = 8,192 does not; k = 100,000 would be a word of about 1 MB
    assert len(word_for_exponents((8190, 1))) == 8191
    for ks in [(100_000,), (8191, 1), (4096, 4096)]:
        with pytest.raises(BudgetError, match=r"a \d+-letter word exceeds"):
            word_for_exponents(ks)


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
    got = series_values(admissible, ps, z1)
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


# The regularizer below is the recursive peeler the package used before the
# closed form: it splits off one leading zero letter at a time, solving the
# shuffle of the zero letter into the tail for the word.

def _regularize_reference(word, ps):
    z = zero_label(ps)
    memo = {}

    def rec(w):
        if w in memo:
            return memo[w]
        if not w or w[0] != z:
            out = {0: ShuffleTensor.from_word(w)}
        else:
            k = 0
            while k < len(w) and w[k] == z:
                k += 1
            out = {p + 1: t for p, t in rec(w[1:]).items()}
            body = w[1:]
            for i in range(k, len(body) + 1):
                inserted = body[:i] + (z,) + body[i:]
                for p, t in rec(inserted).items():
                    out[p] = out.get(p, ShuffleTensor.zero()) - t
            inv = QI.of(1) / QI.of(k)
            out = {p: t.scale(inv) for p, t in out.items() if not t.is_zero}
        memo[w] = out
        return out

    parts = rec(tuple(word))
    return tuple(sorted((k, t) for k, t in parts.items() if not t.is_zero))


@pytest.mark.parametrize("poles,weight", [("0,1", 7), ("0,1,-1", 6)])
def test_closed_form_regularization_matches_the_recursion(poles, weight):
    ps = PoleSet.of(poles)
    count = 0
    for n in range(weight + 1):
        for word in itertools.product(ps.labels, repeat=n):
            assert regularize(word, ps).parts == \
                _regularize_reference(word, ps), word
            count += 1
    assert count == (255 if poles == "0,1" else 1093)


# The evaluation below is the one the package used before the single
# initial-value run: every suffix of the admissible words integrated from
# unit initial values along the chain, then joined with the Taylor values
# at the reference point by the cut formula for concatenated paths.

def _cut_sum_reference(words, pts, ps):
    zlab = zero_label(ps)
    regs = {w: _regularize_reference(w, ps) for w in words}
    admissible = {u for parts in regs.values() for _, t in parts
                  for u in t.terms}
    suffixes = {u[k:] for u in admissible for k in range(len(u) + 1)}
    suffixes.add((zlab,))
    z1 = reference_point(ps)
    path, marks = plan_chain(z1, pts, ps)
    _, caps = integrate_h_words(path, suffixes, Section.standard(ps),
                                capture_after=marks)
    taylors = series_values(admissible, ps, z1)
    rows = []
    for m in marks:
        vals = caps[m]
        logz = cmath.log(z1) + vals[(zlab,)]
        row = {}
        for w, parts in regs.items():
            total = 0j
            for k, t in parts:
                piece = 0j
                for u, c in t.terms.items():
                    acc = 0j
                    for cut in range(len(u) + 1):
                        acc += taylors[u[:cut]] * vals[u[cut:]]
                    piece += complex(c) * acc
                total += piece * logz ** k
            row[w] = total
        rows.append(row)
    return rows


@pytest.mark.parametrize("poles", ["0,1", "0,1,-1", "0,1,-1,i"])
def test_initial_value_run_matches_the_cut_sum_assembly(poles):
    ps = PoleSet.of(poles)
    words = _eval_point_words(ps)
    pts = [0.3 + 0.4j, -0.5 + 0.2j, 0.1 - 0.6j, 0.6 - 0.3j]
    got = eval_batch(words, pts, ps)
    want = _cut_sum_reference(words, pts, ps)
    for row_got, row_want in zip(got, want):
        for w in words:
            v = row_want[w]
            assert abs(row_got[w] - v) <= 1e-13 * max(1.0, abs(v)), w


# A chain starts at its first point, or on that point's ray, when the point
# lies in the origin's disk; series_checks.reference_evaluate is the route
# it replaced, from the reference point along the planned leg.

def _seeded_points(rng, count, top=0.75):
    """Points drawn as the eval-points benchmark draws them: inside the unit
    disk, 0.25 to 0.75 (or top) from the origin and off the real axis."""
    pts = []
    while len(pts) < count:
        r, t = rng.uniform(0.25, top), rng.uniform(-math.pi, math.pi)
        z = r * complex(math.cos(t), math.sin(t))
        if abs(z.imag) >= 0.02:
            pts.append(z)
    return pts


def _close(got, want):
    return abs(got - want) <= 1e-13 * max(1.0, abs(want))


@pytest.mark.parametrize("poles", ["0,1", "0,1,-1", "0,1,-1,i"])
def test_a_chain_from_its_first_point_matches_the_reference_route(poles):
    ps = PoleSet.of(poles)
    rng = random.Random(21)
    # -0.5+0.05j: the planned leg detours below the origin and winds -1
    # about it; so do the legs to the negative axis, on either signed zero;
    # 0.8+0.3j lies past three quarters of the disk and starts on its ray;
    # 0.9+0.8j lies outside the disk and starts at z1 as before
    pts = _seeded_points(rng, 3) + [-0.5 + 0.05j, -0.3 + 0j,
                                    complex(-0.7, -0.0), 0.8 + 0.3j,
                                    0.9 + 0.8j]
    starts = {}
    for z in pts:
        head, turns = hyperlog._start(z, ps)
        kind = ("z" if head.base == z else
                "z1" if head.base == reference_point(ps) else "ray")
        starts[z] = (kind, turns)
    assert {kind for kind, _ in starts.values()} == {"z", "ray", "z1"}
    assert {turns for _, turns in starts.values()} == {0, -1}
    for w in _eval_point_words(ps):
        for z in pts:
            [want] = reference_evaluate([w], [z], ps)
            assert _close(eval_L(w, z, ps).value, want[w]), (w, z, starts[z])


@pytest.mark.parametrize("first", [0.3 + 0.4j, -0.5 + 0.05j])
def test_a_batch_from_its_first_point_matches_the_reference_route(first):
    ps = PoleSet.of("0,1,-1")
    words = _eval_point_words(ps) + [("0",), ("0", "0")]
    pts = [first, 0.1 - 0.6j, -0.6 - 0.3j, 0.6 - 0.3j]
    got = eval_batch(words, pts, ps)
    want = reference_evaluate(words, pts, ps)
    for row_got, row_want in zip(got, want):
        for w in words:
            assert _close(row_got[w], row_want[w]), (w, pts)


@pytest.mark.parametrize("z,label", [(0.3 + 0.2j, "0"), (0.3 + 0.2j, "1"),
                                     (-0.5 + 0.05j, "-1")])
def test_a_continuation_loop_matches_the_reference_route(z, label):
    ps = PoleSet.of("0,1,-1")
    loop = loop_around(ps, label, z)
    for w in [("0", "1", "0"), ("-1", "0", "0"), ("0",)]:
        [want] = reference_evaluate([w], [z], ps, tail=loop.path)
        assert _close(eval_L(w, z, ps, loop=loop).value, want[w]), w


def test_an_empty_head_gives_the_value_of_the_full_route(monkeypatch):
    # the head of 0.3+0.2j is empty: the value is the series values summed
    # at the point, whether or not the empty path builds its word system;
    # the route from the reference point integrates the leg and lands
    # within rounding of it
    from curvelog import iterint

    ps = PoleSet.of("0,1,-1")
    w, z = ("0", "-1", "0"), 0.3 + 0.2j
    assert not hyperlog._start(z, ps)[0].segments
    got = eval_L(w, z, ps).value
    reg = regularize(w, ps)
    vals = series_values({u for _, t in reg.parts for u in t.terms}
                         | {("0",)}, ps, z)
    assert got == hyperlog._combine(reg, vals, vals[("0",)])
    monkeypatch.setattr(iterint, "_integrate", reference_integrate)
    assert eval_L(w, z, ps).value == got
    [near] = reference_evaluate([w], [z], ps)
    assert _close(got, near[w])


# The start of a chain against the one it replaced: series_checks keeps the
# start that summed every leg's sweeps and took the zero letter from its
# series.  The head, its base, its turns and every value the chain starts
# from must be the same, bit for bit.

def _ring_points(rng, count, lo, hi):
    """Seeded points at lo to hi times the origin's disk radius r (1 on the
    pole sets below), off the real axis and 0.05 from every puncture."""
    pts = []
    while len(pts) < count:
        r, t = rng.uniform(lo, hi), rng.uniform(-math.pi, math.pi)
        z = r * complex(math.cos(t), math.sin(t))
        if abs(z.imag) >= 0.02 and min(abs(z - 1), abs(z + 1),
                                       abs(z - 1j)) >= 0.05:
            pts.append(z)
    return pts


@pytest.mark.parametrize("poles", ["0,1", "0,1,-1", "0,1,-1,i"])
def test_a_chain_starts_as_the_reference_start_did(poles, monkeypatch):
    ps = PoleSet.of(poles)
    assert 2 * reference_point(ps).real == 1.0
    rng = random.Random(37)
    pts = (_ring_points(rng, 8, 0.25, 0.75) + _ring_points(rng, 4, 0.76, 0.99)
           + _ring_points(rng, 4, 1.05, 1.5))
    words = _eval_point_words(ps)
    real = hyperlog.integrate_h_words
    seen = []

    def spy(path, words, section, cfg=None, capture_after=(), start=None):
        seen.append(dict(start))
        return real(path, words, section, cfg, capture_after, start)

    monkeypatch.setattr(hyperlog, "integrate_h_words", spy)
    kinds = set()
    for z in pts:
        head, turns = hyperlog._start(z, ps)
        want_head, want_turns = reference_start(z, ps)
        assert head.segments == want_head.segments, z
        assert (head.base, turns) == (want_head.base, want_turns), z
        kinds.add(_start_kind(z, ps))
        eval_batch(words, [z], ps)
        assert seen.pop() == reference_start_values(words, ps, head.base,
                                                    turns), z
    assert kinds == {"z", "ray", "z1"}


@pytest.mark.parametrize("z,kind,turns", [
    (-0.4 + 0.1j, "z", -1), (0.3 + 0.4j, "z", 0), (-0.6 + 0.5j, "ray", -1),
    (0.9 + 0.1j, "ray", 0), (1.5 + 1j, "z1", 0)])
def test_a_start_on_0_1_is_the_reference_start(z, kind, turns):
    # from the point itself inside 3/4 r, from its ray out to r, and from
    # the leg from 0.5 beyond r; the legs to the left detour under 0
    head, got = hyperlog._start(z, PS)
    assert (_start_kind(z, PS), got) == (kind, turns)
    assert (head, got) == reference_start(z, PS)


# the pole sets of the accuracy audit (ROADMAP item 7)
_AUDIT_POLES = ["0,1", "0,1,-1", "0,1,-1,i", "0,2,1/2", "0,1,1+1/10i",
                "0,1/10,1", "0,3,-2-i"]


@pytest.mark.parametrize("poles", _AUDIT_POLES)
def test_no_in_disk_leg_detours_around_another_puncture(poles):
    # a leg with an arc about another puncture is the head of its chain,
    # from z1, since the detour test cannot tell its turns; seeded in-disk
    # points, most of them from 0.71 r out to r, plan none: every arc
    # circles the origin
    ps = PoleSet.of(poles)
    z1 = reference_point(ps)
    r = 2 * z1.real
    rng = random.Random(71)
    detoured = 0
    for k in range(1500):
        t = rng.uniform(-math.pi, math.pi)
        z = r * rng.uniform(0.71 if k % 4 else 0.05, 1.0) * cmath.exp(1j * t)
        if not (abs(z) < r and min(abs(z - p) for p in ps.as_complex)
                > 2 * ps.guard):
            continue
        centers = {seg.center for seg in plan_path(z1, z, ps).segments
                   if isinstance(seg, ArcSeg)}
        assert centers <= {0}, z
        detoured += bool(centers)
    assert detoured > 20  # 45 to several hundred per pole set


def _start_beside(poles, label, z):
    """hyperlog._start at z, just inside the origin's disk beside the
    puncture ``label``, whose leg from z1 has an arc about that puncture;
    its three words checked against reference_evaluate, bit for bit.
    Returns the leg and _start's head and turns."""
    ps = PoleSet.of(poles)
    p = ps.as_complex[ps.index(label)]
    r = 2 * reference_point(ps).real
    assert 0 < r - abs(z) < 1e-10 * r
    leg = plan_path(reference_point(ps), z, ps)
    assert p in {seg.center for seg in leg.segments
                 if isinstance(seg, ArcSeg)}
    for w in [(label,), ("0", label), (label, "0")]:
        [want] = reference_evaluate([w], [z], ps)
        assert eval_L(w, z, ps).value == want[w], w
    return (leg, *hyperlog._start(z, ps))


def test_an_in_disk_leg_can_detour_around_another_puncture():
    # z lies 1.4e-11 r inside the origin's disk, beside the puncture
    # 3/200+1/100i: its leg from z1 has an arc about that puncture, which
    # the detour test cannot place, so the whole three-segment leg from z1
    # is the head, with no turns
    z = 0.011792203915468738 + 0.013636125799032747j
    leg, head, turns = _start_beside("0,4+1/2i,3/200+1/100i",
                                     "3/200+1/100i", z)
    assert len(leg.segments) == 3
    assert head == leg and turns == 0


def test_an_in_disk_leg_that_winds_about_another_puncture_is_the_head():
    # the same geometry mirrored in the real axis: the detour still passes
    # to the left, now about 3/200-1/100i, which lies left of the chord, so
    # the leg closed by the chord winds once about it; the head is again
    # the whole three-segment leg from z1, with no turns
    z = 0.011792203915468738 - 0.013636125799032747j
    leg, head, turns = _start_beside("0,4-1/2i,3/200-1/100i",
                                     "3/200-1/100i", z)
    assert len(leg.segments) == 3
    assert head == leg and turns == 0


# A first point in the origin's disk takes its turns from the planner's
# detour test and plans only its head; series_checks.reference_leg_start
# plans the leg from z1 for every first point.  Where the test tells the
# turns, and outside the disk, head, base, turns and any refusal must be
# the same, bit for bit.  Where it cannot, the head is the leg from z1 with
# no turns, and eval_L is reference_evaluate, bit for bit, refusals too.

_START_POLES = _AUDIT_POLES + ["0,1/1000,1", "0,1,1/1000i"]


def _start_outcome(start, z, ps):
    try:
        head, turns = start(z, ps)
    except CurvelogError as exc:
        return type(exc), str(exc)
    return head.segments, head.base, turns


def _start_route(z, ps, monkeypatch):
    """How hyperlog._start started z's chain, told from the paths it plans:
    "leg" when it planned the leg from z1 for a point in the disk, "chord"
    or "detour" when it did not and the chord from z1 has no detour or has
    one, "outside" for a point outside the disk; and its outcome."""
    z1 = reference_point(ps)
    planned = []

    def spy(a, b, ps):
        planned.append(a)
        return plan_path(a, b, ps)

    with monkeypatch.context() as m:
        m.setattr(hyperlog, "plan_path", spy)
        got = _start_outcome(hyperlog._start, z, ps)
    if not abs(z) < 2 * z1.real:
        route = "outside"
    elif z1 in planned:
        route = "leg"
    else:
        route = "detour" if _detours(z1, z, ps)[1] else "chord"
    return route, got


def _start_points(ps, rng):
    """Seeded points near the origin, near the rim on both sides, across
    the disk and on the chord through 0 (the negative real axis, on either
    signed zero and 1e-12 off it)."""
    r = 2 * reference_point(ps).real

    def polar(radius):
        return radius * cmath.exp(1j * rng.uniform(-math.pi, math.pi))

    pts = [polar(r * 10 ** rng.uniform(-9, -1)) for _ in range(40)]
    pts += [polar(r * (1 - 10 ** rng.uniform(-15, -1))) for _ in range(40)]
    pts += [polar(r * (1 + 10 ** rng.uniform(-15, -1))) for _ in range(8)]
    pts += [polar(r * rng.uniform(0, 1)) for _ in range(40)]
    for t in (1e-9, 0.004, 0.3, 0.74, 0.9, 1 - 1e-9):
        pts += [complex(-t * r, y) for y in (0.0, -0.0, 1e-12, -1e-12)]
    return pts


def _check_leg_route(z, ps, got):
    """A point on the "leg" route: _start's outcome ``got`` is the planned
    leg from z1 with no turns, and eval_L of three words at z, or its
    refusal, is reference_evaluate's, bit for bit."""
    z1 = reference_point(ps)
    assert got == _start_outcome(lambda z, ps: (plan_path(z1, z, ps), 0),
                                 z, ps), z

    def outcome(evaluate):
        try:
            return evaluate()
        except CurvelogError as exc:
            return type(exc), str(exc)

    near = min((p for p in ps.as_complex if p != 0), key=abs)
    a = ps.labels[ps.as_complex.index(near)]
    for w in [(a,), ("0", a), (a, "0")]:
        assert (outcome(lambda: eval_L(w, z, ps).value) == outcome(
            lambda: reference_evaluate([w], [z], ps)[0][w])), (z, w)


@pytest.mark.parametrize("poles", _START_POLES)
def test_start_is_the_leg_start(poles, monkeypatch):
    ps = PoleSet.of(poles)
    routes = set()
    for z in _start_points(ps, random.Random(44)):
        route, got = _start_route(z, ps, monkeypatch)
        routes.add(route)
        if route == "leg":
            _check_leg_route(z, ps, got)
        else:
            assert got == _start_outcome(reference_leg_start, z, ps), (z,
                                                                        route)
    assert routes == {"chord", "detour", "leg", "outside"}


def _fallback_points():
    """(pole set, point) for every reason _start starts a point in the disk
    along the planned leg from z1, each named."""
    ps = PoleSet.of("0,1")
    z1, r, g = reference_point(ps), 1.0, ps.guard
    beside = 0.010290739302202706 + 0.014713959858203736j
    return {
        # within four guards of the rim
        "rim": ("0,1", (1 - 1e-9) * cmath.exp(1j)),
        "rim, chord within the guard of 1": ("0,1", 1 - 2e-4 + 1e-5j),
        # within 1e-14 of z1, where the planner drops the piece
        "at z1": ("0,1", z1),
        "beside z1": ("0,1", z1 + 1e-15j),
        # so close past its ray point that the planner would drop the head
        "at the ray point": ("0,1", 0.75 * r * (1 + 5e-15) * cmath.exp(1j)),
        # the disk passes the planner's modulus: planned, refused, or not
        "far out": ("0,15e305", 1.2e306 * cmath.exp(1j)),
        "far in": ("0,15e305", 5e305 * cmath.exp(3j)),
        # a detour about 0 whose radius is within the slack
        "small detour": ("0,1", 4 * g * cmath.exp(3j)),
        # a detour about another puncture, which winds about it or not
        "about another": ("0,4+1/2i,3/200+1/100i", beside),
        "winds about another": ("0,4-1/2i,3/200-1/100i", beside.conjugate()),
    }


@pytest.mark.parametrize("name", list(_fallback_points()))
def test_each_fallback_plans_the_leg_as_the_leg_start_did(name, monkeypatch):
    poles, z = _fallback_points()[name]
    ps = PoleSet.of(poles)
    assert abs(z) < 2 * reference_point(ps).real
    route, got = _start_route(z, ps, monkeypatch)
    assert route == "leg"
    _check_leg_route(z, ps, got)


@pytest.mark.parametrize("poles,z", [
    # the chord from 0.5 passes 0.025 from the origin
    ("0,1,-1", -0.5 + 0.05j),
    # the chord's far end projects within the half circle's radius of 0,
    # so the last line piece comes nearest to 0 inside, still 0.6 rho off
    ("0,1", 0.01 * cmath.exp(2.4j))])
def test_a_detour_about_the_origin_builds_no_arc(poles, z, monkeypatch):
    ps = PoleSet.of(poles)
    built = []
    init = ArcSeg.__init__

    def spy(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(ArcSeg, "__init__", spy)
    assert _detours(reference_point(ps), z, ps)[1]
    head, turns = hyperlog._start(z, ps)
    eval_L(("0", ps.labels[-1], "0"), z, ps)
    assert not built and not head.segments and turns == -1
    assert reference_leg_start(z, ps) == (head, turns)
    assert len(built) == 1  # the reference's leg has its arc


def _negative_axis_points(ps, rng, count):
    """Seeded points of the origin's disk within 1 radian of its
    negative real axis, where the chord from z1 may pass 0 close enough to
    detour, then points on that axis on either signed zero and 1e-300 and
    1e-12 off it."""
    r = 2 * reference_point(ps).real
    pts = [r * min(10 ** rng.uniform(-3, 0), 1 - 1e-6)
           * cmath.exp(1j * (math.pi + rng.uniform(-1, 1)))
           for _ in range(count)]
    for t in (1e-9, 0.004, 0.3, 0.74, 0.9, 1 - 1e-9):
        pts += [complex(-t * r, y)
                for y in (0.0, -0.0, 1e-300, -1e-300, 1e-12, -1e-12)]
    return pts


def test_a_lone_half_circle_about_0_takes_its_turns_from_the_half_plane():
    # a first point that starts past a detour without planning the leg
    # from z1 (a lone half circle about 0) takes the turns that
    # series_checks.reference_chord_turns sums from the half circle's
    # ends; off the real axis the planned leg closed by the chord back
    # winds once, below 0, about it exactly when z lies above the axis.
    # A refused first point is one whose leg from z1 is refused.
    rng = random.Random(46)
    cases, seen = 0, set()
    for poles in _START_POLES + ["0,2+i", "0,1/3,-5", "0,15e305"]:
        ps = PoleSet.of(poles)
        z1 = reference_point(ps)
        slack = 4 * ps.guard + 1e-12 * 2 * z1.real
        for z in _negative_axis_points(ps, rng, 2400):
            try:
                head, turns = hyperlog._start(z, ps)
            except CurvelogError:
                with pytest.raises(CurvelogError):
                    plan_path(z1, z, ps)
                continue
            if head.base == z1 or not _detours(z1, z, ps)[1]:
                continue
            cases += 1
            seen.add(turns)
            assert turns == reference_chord_turns(z1, z, ps, slack), z
            if z.imag:
                loop = plan_path(z1, z, ps) + Path.line(z, z1)
                assert round(loop.sweep(0j) / (2 * math.pi)) == (
                    -1 if z.imag > 0 else 0), z
    assert cases > 19_000 and seen == {-1, 0}


@given(st.sampled_from(_START_POLES), st.floats(0.75, 1.0, exclude_min=True,
                                                 exclude_max=True),
       st.floats(-math.pi, math.pi))
def test_a_head_from_the_ray_is_its_one_line(poles, ratio, angle):
    # no other puncture lies within r of 0, so no detour fires on the
    # radial line from the ray point at 3/4 r out to z, and plan_path gives
    # the line Path.line builds; from z to itself it gives the empty path
    ps = PoleSet.of(poles)
    r = 2 * reference_point(ps).real
    z = ratio * r * cmath.exp(1j * angle)
    base = z * (0.75 * r / abs(z))
    if abs(z - base) > 1e-14:
        assert plan_path(base, z, ps) == Path.line(base, z)
    assert plan_path(z, z, ps) == Path((), z)


# A first point out to three quarters of the origin's disk starts from its
# own series, and one further out from its ray at three quarters; both
# routes must agree with the one from the reference point and with the
# closed forms of the eval-points families.

def _disk_points(rng, count):
    """Seeded points off the real axis at 0.25 to 0.95 of the origin's
    disk radius (1 on the pole sets below), after points just inside and
    just outside three quarters of it."""
    return ([0.74 * cmath.exp(1j), 0.76 * cmath.exp(2j), 0.95 * cmath.exp(-2j)]
            + _seeded_points(rng, count - 3, top=0.95))


def _start_kind(z, ps):
    head, _ = hyperlog._start(z, ps)
    return ("z" if not head.segments else
            "z1" if head.base == reference_point(ps) else "ray")


@pytest.mark.parametrize("poles", ["0,1", "0,1,-1,i", "0,2+i", "0,1/3,-5"])
def test_a_first_point_starts_at_itself_out_to_three_quarters(poles):
    # past three quarters of the radius r the head runs from the ray point
    # at 3/4 r, which may round a hair past it (r = sqrt(5) on 0,2+i)
    ps = PoleSet.of(poles)
    r = 2 * reference_point(ps).real
    w = ("0", ps.labels[1], "0")
    for t in (0.25, 0.5, 0.74, 0.76, 0.9):
        z = t * r * cmath.exp(1j)
        head, turns = hyperlog._start(z, ps)
        assert turns == 0
        if t < 0.75:
            assert not head.segments and head.base == z
        else:
            assert head.segments and abs(abs(head.base) - 0.75 * r) <= 1e-15
        [want] = reference_evaluate([w], [z], ps)
        assert _close(eval_L(w, z, ps).value, want[w])


@pytest.mark.parametrize("poles", ["0,1", "0,1,-1", "0,1,-1,i"])
def test_points_across_the_disk_match_the_reference_route(poles):
    ps = PoleSet.of(poles)
    pts = _disk_points(random.Random(36), 12)
    assert {_start_kind(z, ps) for z in pts} >= {"z", "ray"}
    words = _eval_point_words(ps)
    for z in pts:
        [want] = reference_evaluate(words, [z], ps)
        for w in words:
            assert _close(eval_L(w, z, ps).value, want[w]), (w, z)


def _closed_form(word, z, a):
    """L(a^n) = log(1 - z/a)^n / n!, L(a, 0^m) = -Li_(m+1)(z/a), and
    L(0^k, a, 0^m) from the shuffle of 0^k with (a, 0^m): log(z)^k / k!
    L(a, 0^m) is the sum over i of C(m + k - i, k - i) L(0^i, a,
    0^(m + k - i)), on the principal sheet."""
    with mpmath.workdps(20):
        z, x = mpmath.mpc(z), mpmath.mpc(z) / mpmath.mpc(a)
        if "0" not in word:
            return complex(mpmath.log(1 - x) ** len(word)
                           / mpmath.factorial(len(word)))
        k = next(i for i, lab in enumerate(word) if lab != "0")

        @functools.cache
        def lead(i, m):
            if i == 0:
                return -mpmath.polylog(m + 1, x)
            return (mpmath.log(z) ** i / mpmath.factorial(i) * lead(0, m)
                    - sum(mpmath.binomial(m + i - j, i - j)
                          * lead(j, m + i - j) for j in range(i)))

        return complex(lead(k, len(word) - 1 - k))


def _winds(z, ps):
    """Whether the planned leg to z, closed by the chord back to the
    reference point, winds about any puncture, the origin too."""
    z1 = reference_point(ps)
    closed = plan_path(z1, z, ps) + Path.line(z, z1)
    return any(round(closed.sweep(p) / (2 * math.pi)) for p in ps.as_complex)


@pytest.mark.parametrize("poles", ["0,1", "0,1,-1", "0,1,-1,i"])
def test_points_across_the_disk_match_the_closed_forms(poles):
    ps = PoleSet.of(poles)
    pts = [z for z in _disk_points(random.Random(36), 16) if not _winds(z, ps)]
    assert len(pts) >= 8
    assert {_start_kind(z, ps) for z in pts} >= {"z", "ray"}
    for z in pts:
        for w in _eval_point_words(ps):
            a = ps.as_complex[ps.index(next(lab for lab in w if lab != "0"))]
            want = _closed_form(w, z, a)
            got = eval_L(w, z, ps).value
            assert abs(got - want) <= 2e-15 * max(1.0, abs(want)), (w, z)


def test_near_the_origin_a_value_is_its_own_series():
    # summed at z itself: the leg from the reference point lost 3.4e-13
    z = 0.002 + 0.001j
    want = -complex(mpmath.polylog(3, mpmath.mpc(z)))
    assert abs(eval_L(("1", "0", "0"), z, PS).value - want) <= 1e-15 * abs(want)


def test_points_in_the_guard_still_raise():
    guard = PS.guard
    for z in (0.5 * guard, 0.5j * guard, 1 + 0.5 * guard):
        with pytest.raises(PathError):
            eval_L(("0", "1"), z, PS)
        with pytest.raises(PathError):
            eval_batch([("0", "1")], [z, 0.3], PS)


def test_a_value_reads_its_modulus_and_shows_its_provenance():
    v = HyperlogValue(3 - 4j, ("0",), 0.3 + 0j, "principal")
    assert abs(v) == 5.0
    assert repr(v) == ("HyperlogValue((3-4j), word=('0',), point=(0.3+0j), "
                       "path_class='principal')")
    assert eval_batch([("0", "1")], [], PS) == []


@pytest.mark.parametrize("poles", ["0,1", "0,1,-1", "0,1,-1,i"])
def test_in_disk_values_and_mzv_are_the_reference_summation_bit_for_bit(
        monkeypatch, poles):
    # every eval-points family at seeded in-disk points, and mzv, against
    # series_checks.reference_series_values, which sums on two paths
    ps = PoleSet.of(poles)
    pts = _seeded_points(random.Random(40), 4)
    words = _eval_point_words(ps)
    limits = [("1", "0"), ("1", "0", "0"), ("1", "1", "0"),
              ("0", "1", "0", "0", "1", "0"), ("1",) * 4 + ("0",) * 2]

    def values():
        return np.array([eval_L(w, z, ps).value for w in words for z in pts]
                        + [mzv(w) for w in limits])

    got = values()
    monkeypatch.setattr(hyperlog, "series_values", reference_series_values)
    assert got.tobytes() == values().tobytes()


@pytest.mark.parametrize("poles", ["0,1", "0,1,-1", "0,1,-1,i"])
def test_an_in_disk_value_builds_no_word_system(monkeypatch, poles):
    # a first point within 3/4 r is its own series: its path has no segment
    # and asks _integrate for no word, so no word system is built or run
    def never(*args, **kwargs):
        raise AssertionError("an in-disk value built or ran a word system")

    ps = PoleSet.of(poles)
    pts = _seeded_points(random.Random(50), 6)
    assert {_start_kind(z, ps) for z in pts} == {"z"}
    words = _eval_point_words(ps)
    want = [eval_L(w, z, ps).value for w in words for z in pts]
    monkeypatch.setattr(iterint, "_WordSystem", never)
    monkeypatch.setattr(iterint, "_run", never)
    assert [eval_L(w, z, ps).value for w in words for z in pts] == want


# eval_L switches routes at 3/4 r, from the point's own series to the radial
# line from its ray point, and at the slack inside the rim r, from that line
# to the planned leg from the reference point.  A value just past either
# seam must continue the two just inside it; 0.6 r, inside one route, is
# the control.

def _seam_angles(rng, ps, count):
    """Seeded directions off the real axis (|sin| > 0.2) and 0.3 away from
    the direction of every puncture, so that the rim stays clear of them."""
    dirs = [cmath.phase(p) for p in ps.as_complex if p != 0]
    out = []
    while len(out) < count:
        t = rng.uniform(-math.pi, math.pi)
        if abs(math.sin(t)) > 0.2 and all(
                abs(cmath.phase(cmath.exp(1j * (t - d)))) > 0.3 for d in dirs):
            out.append(t)
    return out


@pytest.mark.parametrize("poles", ["0,1", "0,1,-1", "0,1,-1,i", "0,3,-2-i"])
def test_values_are_continuous_where_eval_l_switches_routes(poles):
    # the value past a seam against the line through the values 1e-10 r and
    # 2e-10 r inside it: the largest gap over these points, relative to
    # max(1, |value|), was 2.3e-15 (on 0,3,-2-i; 1.4e-15 on the others).
    # Nearer a puncture's direction it grows: 9.8e-15 at the rim of
    # 0,3,-2-i, within 0.05 of the direction of -2-i
    ps = PoleSet.of(poles)
    r = 2 * reference_point(ps).real
    d = 1e-10 * r
    seams = {0.6 * r: ["z", "z", "z"], 0.75 * r: ["z", "z", "ray"],
             r - 4 * ps.guard - 1e-12 * r: ["ray", "ray", "z1"]}
    words = _eval_point_words(ps)
    for t in _seam_angles(random.Random(7), ps, 6):
        e = cmath.exp(1j * t)
        for seam, kinds in seams.items():
            zs = [(seam - 2 * d) * e, (seam - d) * e, (seam + d) * e]
            assert [_start_kind(z, ps) for z in zs] == kinds
            for w in words:
                a, b, c = (eval_L(w, z, ps).value for z in zs)
                assert abs(c - (3 * b - 2 * a)) <= 5e-15 * max(1.0, abs(c)), (
                    w, t, seam)
