import cmath
import itertools
import json
import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from curvelog import (
    QI,
    BudgetError,
    DomainError,
    IntegratorConfig,
    LogLaurentExpansion,
    NumericError,
    PoleSet,
    eval_L,
    expand_at,
    loop_around,
    mzv,
    regularize,
)
from curvelog import local_expansion
from curvelog.local_expansion import (SERIES_TERMS, _letter_series, _letter_step,
                                      _series_order, series_values)
from series_checks import (letter_product_bound, letter_step_bound,
                           reference_expand_at, reference_letter_step,
                           reference_series_values)

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
    turned = exp.substitute_log_shift(2j * math.pi)
    z = 0.2 * cmath.exp(0.7j)
    lp = loop_around(PS, "0", z)
    direct = eval_L(("0", "1"), z, PS, cfg=tight, loop=lp).value
    assert abs(turned.evaluate(z) - direct) < 1e-8


def test_monodromy_substitution_is_exact_on_log_powers():
    exp = expand_at(("0", "0"), PS, 0)
    turned = exp.substitute_log_shift(2j * math.pi)
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
        expand_at(("2",), PS, 0)
    with pytest.raises(DomainError):
        expand_at(("1",), PoleSet.of("1,2"), 1)  # origin must be a puncture


def test_every_order_is_checked_within_the_same_tolerance(capsys,
                                                         monkeypatch):
    from curvelog import hyperlog
    from curvelog.cli import main

    # at order 3 the constants are matched on the series the default order
    # matches them on, so the control point holds within 1e-6 at every order
    assert main(["expand", "--poles", "0,1,-1", "--word", "-1", "--point",
                 "1", "--weight", "3"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["order"] == 3
    ps = PoleSet.of("0,1,-1")
    want = expand_at(("-1",), ps, 1, order=3).to_json()
    assert out["terms"] == want["terms"]
    batch = hyperlog.eval_batch

    def corrupted(delta):
        def shifted(words, points, poles, cfg=None):
            ref, chk = batch(words, points, poles, cfg)
            return {w: v + delta for w, v in ref.items()}, chk
        return shifted

    # a shift of 1e-5 at order 3 passed the truncation remainder (1.8e-3)
    # that the control point admitted there before
    for kwargs, delta in (({"order": 3}, 1e-2), ({}, 1e-2), ({}, 1e-5),
                          ({"order": 3}, 1e-5)):
        monkeypatch.setattr(hyperlog, "eval_batch", corrupted(delta))
        with pytest.raises(NumericError, match="control point"):
            expand_at(("-1",), ps, 1, **kwargs)


def _convergent_words(n):
    """Every word of one to n letters over 0 and 1 that converges at one."""
    return [w for k in range(1, n + 1)
            for w in itertools.product("01", repeat=k) if w[-1] != "1"]


@pytest.mark.parametrize("order", [1, 4, 8, 24])
def test_the_constant_at_one_is_the_zeta_value_at_every_order(order):
    # the constants were matched on the series cut at the order asked for,
    # and at order 1 the constant term was 0.71 away from mzv
    for w in _convergent_words(6):
        v = mzv(w)
        got = expand_at(w, "0,1", 1, order=order).coeff(0, 0)
        assert abs(got - v) <= 1e-15 * max(1.0, abs(v)), w


def _center_words():
    """The words of one and two letters over {0, 1, -1, i} and twelve
    seeded ones of three to five."""
    rng = random.Random(47)
    ps = PoleSet.of("0,1,-1,i")
    return ps, [w for n in (1, 2) for w in itertools.product(ps.labels,
                                                            repeat=n)] + [
        tuple(rng.choice(ps.labels) for _ in range(n))
        for n in (3, 4, 5) for _ in range(4)]


@pytest.mark.parametrize("center", [1, -1, "i", Fraction(1, 3)])
def test_an_expansion_is_the_leading_columns_of_a_longer_one(center):
    ps, words = _center_words()
    for w in words:
        full = expand_at(w, ps, center, order=60).rows
        for order in (1, 4, 8, 24, 40):
            got = expand_at(w, ps, center, order=order).rows
            want = full[:, :order + 1]
            assert got.shape == want.shape
            assert np.all(np.abs(got - want)
                          <= 1e-15 * np.maximum(1.0, np.abs(want))), (w, order)


@pytest.mark.parametrize("center", [1, -1, "i", Fraction(1, 3)])
def test_from_order_40_the_expansion_is_the_reference_one(center):
    # series_checks.reference_expand_at stepped in x to the order asked for;
    # from order 40 its constants are as exact as the new ones.  Both are
    # compared on the scale of the series in x / r: at 1/3 the coefficients
    # of a word through 0 cancel far below that scale, so neither holds its
    # high coefficients to their own relative accuracy
    ps, words = _center_words()
    for w in words:
        for order in (40, 60):
            got = expand_at(w, ps, center, order=order)
            want = reference_expand_at(w, ps, center, order=order).rows
            powers = (2 * got.radius) ** np.arange(order + 1)
            scale = max(1.0, np.max(np.abs(want) * powers))
            assert np.max(np.abs(got.rows - want) * powers) <= 1e-14 * scale


@pytest.mark.parametrize("order", [2.5, 1e3, "24", Fraction(24)])
def test_a_non_integral_order_is_refused(order):
    for center in (0, 1):
        with pytest.raises(DomainError, match="integer"):
            expand_at(("1", "0"), PS, center, order=order)


def test_evaluate_guards_the_disk():
    exp = expand_at(("0",), PS, 0)
    with pytest.raises(DomainError):
        exp.evaluate(0.0)
    with pytest.raises(DomainError):
        exp.evaluate(0.75)


@pytest.mark.parametrize("center", ["0", "1"])
def test_evaluate_refuses_a_nan_point_as_it_does_an_infinite_one(center):
    exp = expand_at(("0", "1"), PS, center)
    for bad in (complex(math.nan, 0), complex(0.1, math.nan),
                complex(math.inf, 0)):
        with pytest.raises(DomainError, match="outside the disk"):
            exp.evaluate(exp.center + bad)


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
                                exp.rows)
    z = 0.3 + 0.1j
    assert clone.evaluate(z) == exp.evaluate(z)


def test_rows_are_read_only_and_expansions_compare_by_identity():
    exp = expand_at(("0", "1"), PS, 0, order=6)
    assert exp.rows.shape == (2, 7)
    with pytest.raises(ValueError):
        exp.rows[0, 1] = 1
    rows = exp.rows.copy()
    clone = LogLaurentExpansion(exp.word, exp.center, exp.radius, exp.order,
                                rows)
    rows[0, 1] = 1  # the clone holds its own read-only copy
    assert clone.coeffs == exp.coeffs
    assert clone != exp and clone == clone


@pytest.mark.parametrize("delta", [math.nan, complex(0.0, math.nan),
                                   math.inf, complex(0.0, -math.inf)])
def test_a_non_finite_log_shift_is_refused(delta):
    exp = expand_at(("0", "1"), PS, 0)
    with pytest.raises(DomainError, match="log shift"):
        exp.substitute_log_shift(delta)


def test_a_log_shift_that_overflows_is_refused():
    # log^3 / 6 shifted by 1e200 needs 1e600
    exp = expand_at(("0", "0", "0"), PS, 0)
    assert exp.substitute_log_shift(1e100).coeff(0, 0) == pytest.approx(
        1e300 / 6)
    with pytest.raises(DomainError, match="log shift"):
        exp.substitute_log_shift(1e200)


def test_orders_over_the_matrix_cap_are_refused_before_any_work(monkeypatch):
    from curvelog import hyperlog, local_expansion

    class Reached(Exception):
        pass

    def reached(*args, **kwargs):
        raise Reached

    monkeypatch.setattr(local_expansion, "_letter_series", reached)
    monkeypatch.setattr(hyperlog, "eval_batch", reached)
    # order 4095 is exactly the cap on the letter product
    with pytest.raises(Reached):
        expand_at(("1", "0"), PS, 0, order=4095)
    for order in (4096, 100_000):
        with pytest.raises(BudgetError, match="cap of 4095 on the letter"):
            expand_at(("1", "0"), PS, 0, order=order)
        with pytest.raises(BudgetError, match="cap of 4095 on the letter"):
            expand_at(("1", "0"), PS, 1, order=order)


# The letter step integrates by parts from the top log power down and
# multiplies by nothing for the center's own letter;
# series_checks.reference_letter_step is the closed-form sum and the
# identity product it replaced.

def _steps(word, ps, center, order):
    """Each step of the word's series at the center: (input rows, the
    letter's matrix, identity for the center's own letter, new output)."""
    rows = np.eye(1, order + 1, dtype=complex)
    for lab in word:
        letter = _letter_series(ps, lab, center, order, 1.0)
        out = _letter_step(rows, letter)
        yield rows, np.eye(order + 1) if letter is None else letter, out
        rows = out


def _eval_point_prefixes(ps):
    """Every admissible word of the eval-points families (a, 0^(n-1)), a^n
    and (0^k, a, 0^(n-1-k)) for 1 <= k < n and n from 2 to 6, and the zero
    letter: the words whose series ``eval_L`` steps at the origin."""
    words = {("0",)}
    for n in range(2, 7):
        for a in ps.labels:
            if a == "0":
                continue
            family = [(a,) + ("0",) * (n - 1), (a,) * n] + [
                ("0",) * k + (a,) + ("0",) * (n - 1 - k) for k in range(1, n)]
            for w in family:
                for _, t in regularize(w, ps).parts:
                    words.update(t.terms)
    return words


@pytest.mark.parametrize("poles", ["0,1", "0,1,-1", "0,1,-1,i"])
def test_a_single_row_step_is_the_reference_step_bit_for_bit(poles):
    ps = PoleSet.of(poles)
    words = _eval_point_prefixes(ps)
    checked = 0
    for w in words:
        for rows, letter, out in _steps(w, ps, QI.of(0), SERIES_TERMS):
            if len(rows) == 1:
                assert np.array_equal(out, reference_letter_step(rows, letter))
                checked += 1
    assert checked > len(words)


@pytest.mark.parametrize("order", [24, 80])
@pytest.mark.parametrize("poles,center,words", [
    ("0,1,-1", 0, [("0", "0", "1"), ("0", "1", "0", "0"), ("0", "0", "0"),
                   ("0", "-1", "0", "1", "0"), ("1", "0", "0", "0")]),
    ("0,1,-1", 1, [("1", "1", "0"), ("1", "0", "1", "1"),
                   ("-1", "1", "1", "0"), ("1", "1", "1", "1")]),
])
def test_a_many_row_step_agrees_with_the_reference_step(order, poles, center,
                                                        words):
    ps = PoleSet.of(poles)
    deepest = 0
    for w in words:
        for rows, letter, out in _steps(w, ps, QI.of(center), order):
            want = reference_letter_step(rows, letter)
            assert out.shape == want.shape
            assert np.all(np.abs(out - want)
                          <= 1e-15 * np.maximum(1.0, np.abs(want))), w
            deepest = max(deepest, len(rows))
        if center == 0:  # with no constants to match, these are its steps
            assert expand_at(w, ps, 0, order).coeffs == {
                (j, k): c for k, row in enumerate(out.tolist())
                for j, c in enumerate(row) if c != 0}
    assert deepest >= 3


# A letter step multiplies by a running sum (local_expansion._letter_product)
# where the reference multiplies by the letter's matrix: within the dot
# product's rounding bound (series_checks.letter_step_bound) for any letter,
# bit for bit for the letters 1, -1, i and -i of eval-points at the origin.

BOUND_POLE_SETS = ("0,1/2,2", "0,1,3", "0,1/100,1", "0,1+i,3-2i", "0,1,-1,i")


def _random_rows(rng, m, n):
    return rng.uniform(-1, 1, (m, n)) + 1j * rng.uniform(-1, 1, (m, n))


def _assert_within_bound(rows, letter):
    out = _letter_step(rows, letter)
    want = reference_letter_step(rows, letter)
    assert out.shape == want.shape and np.isfinite(out).all()
    bound = letter_step_bound(rows, letter)[:len(want)]
    assert np.all(np.abs(out - want) <= bound)


@pytest.mark.parametrize("order", [24, 193, 1000])
@pytest.mark.parametrize("center", [0, 1])
@pytest.mark.parametrize("poles", BOUND_POLE_SETS)
def test_a_letter_step_is_the_reference_within_the_rounding_bound(
        poles, center, order):
    ps, c = PoleSet.of(poles), QI.of(center)
    scale = min(abs(p - center) for p in ps.as_complex if p != center)
    rng = np.random.default_rng(48)
    checked = 0
    for lab in ps.labels:
        letter = _letter_series(ps, lab, c, order, scale)
        if letter is None:
            continue
        for m in (1, 3):
            _assert_within_bound(_random_rows(rng, m, order + 1), letter)
            checked += 1
    assert checked >= 4


@pytest.mark.parametrize("poles", ["0,1", "0,1,-1", "0,1,-1,i"])
def test_the_eval_points_letters_step_bit_for_bit(poles):
    # numpy's product of several rows by a view from 129 columns on copies
    # it and sums in another order, so several rows are checked against
    # one product per row, whose sum runs over j in order
    ps = PoleSet.of(poles)
    rng = np.random.default_rng(48)
    for order in (40, 63, 64, 80, 127, 128, 150, 193):
        for lab in ps.labels[1:]:
            letter = _letter_series(ps, lab, QI.of(0), order, 1.0)
            row = _random_rows(rng, 1, order + 1)
            assert np.array_equal(_letter_step(row, letter),
                                  reference_letter_step(row, letter))
            rows = _random_rows(rng, 3, order + 1)
            assert np.array_equal(local_expansion._letter_product(rows, letter),
                                  np.stack([r @ letter for r in rows]))


@pytest.mark.parametrize("order", [193, 4095])
def test_the_running_sum_restarts_in_blocks_where_w_is_small(order):
    # on {0, 1/100, 1} at the origin the letter 1 has w = 1/100, so w^-j
    # passes 2^400 after 60 terms; each block of 60 starts from the last
    # column, and nothing overflows
    ps = PoleSet.of("0,1/100,1")
    letter = _letter_series(ps, "1", QI.of(0), order, 0.01)
    size = 1 << order.bit_length()
    assert local_expansion._letter_sums(-letter[0, 1], size)[0] == 60
    rng = np.random.default_rng(48)
    _assert_within_bound(_random_rows(rng, 1, order + 1), letter)
    # several rows by the reference's one product per row, since numpy's
    # product of several rows would copy the 4096 x 4096 view
    rows = _random_rows(rng, 3, order + 1)
    got = local_expansion._letter_product(rows, letter)
    want = np.stack([r @ letter for r in rows])
    assert np.isfinite(got).all()
    assert np.all(np.abs(got - want) <= letter_product_bound(rows, letter))


@pytest.mark.parametrize("word,poles,center,order", [
    (("1", "1", "1", "1"), "0,1,-1", 0, 4095),
    (("1", "-1", "i"), "0,1,-1,i", 0, 1000),
    (("-1", "1", "0"), "0,1,-1", 1, 1000),
])
def test_expand_at_is_the_expansion_stepped_by_the_reference(
        monkeypatch, word, poles, center, order):
    got = expand_at(word, poles, center, order)

    def reference_step(rows, letter, inv=None):
        if letter is None:  # an identity view, not an n x n array
            n = rows.shape[1]
            one = np.zeros(2 * n - 1, dtype=complex)
            one[n - 1] = 1
            letter = np.lib.stride_tricks.as_strided(
                one[n - 1:], (n, n), (-one.itemsize, one.itemsize))
        return reference_letter_step(rows, letter)

    monkeypatch.setattr(local_expansion, "_letter_step", reference_step)
    want = expand_at(word, poles, center, order)
    assert got.rows.shape == want.rows.shape
    assert np.all(np.abs(got.rows - want.rows) <= 1e-15 * np.abs(want.rows))


def test_the_centers_own_letter_has_no_matrix():
    assert _letter_series(PS, "0", QI.of(0), 24, 1.0) is None
    assert _letter_series(PS, "1", QI.of(1), 24, 1.0) is None
    assert _letter_series(PS, "1", QI.of(0), 24, 1.0).shape == (25, 25)


def test_a_letter_matrix_is_a_read_only_view_of_one_vector():
    letter = _letter_series(PS, "1", QI.of(0), 80, 1.0)
    assert letter.shape == (81, 81) and not letter.flags.writeable
    assert letter.base.shape == (255,)
    # entry (j, i) is the coefficient -1 of x^(i - 1 - j), zero below
    lag = np.arange(81) - np.arange(1, 82)[:, None]
    assert np.array_equal(letter, np.where(lag >= 0, -1.0, 0.0))


def test_an_expansion_whose_coefficients_overflow_is_refused():
    # 1/(z - 1/100) has the coefficient -100^(m + 1) at x^m; the series in
    # x / r has none above one, and an expansion is refused where its
    # coefficients over x overflow
    ps = PoleSet.of("0,1/100")
    exp = expand_at(("1/100",), ps, 0, order=150)
    assert exp.coeff(150, 0) == pytest.approx(-(100.0 ** 150) / 150)
    for order in (160, 1000):
        with pytest.raises(DomainError, match="overflow"):
            expand_at(("1/100",), ps, 0, order=order)
    # a coefficient zero in x / r stays zero where (1/100)^j underflows
    assert expand_at(("0", "0"), ps, 0, order=1000).coeffs == {(0, 2): 0.5}


def test_expand_at_keeps_no_letter_matrix():
    # a dense letter matrix of order 1023 is 16 MiB, and building one takes
    # about 2.5 times that; only coefficient vectors may stay cached
    import tracemalloc

    local_expansion._letter_coeffs.cache_clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        exp = expand_at(("1", "-1", "i"), "0,1,-1,i", 0, order=1023)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert exp.rows.shape == (1, 1024)
    assert peak - before < 32 << 20
    assert held - before < 1 << 20


# series_values sums SERIES_TERMS ln 2 / -ln q terms at the ratio q of |x|
# to the nearest other puncture, and refuses a ratio past three quarters.

def test_the_term_count_follows_the_ratio():
    assert _series_order(0.5) == SERIES_TERMS == 80
    assert _series_order(0.75) == 193
    # a ray point at three quarters of the radius may round a hair past it
    assert _series_order(math.nextafter(0.75, 1)) == 193
    counts = [_series_order(q / 100) for q in range(10, 76)]
    assert counts == sorted(counts) and counts[-1] == 193
    assert _series_order(1e-300) == _series_order(0.0) > 0
    assert _series_order(0.7) < _series_order(0.74) < 193


@pytest.mark.parametrize("x", [1.5j, 0.999, 0.76, -0.9 + 0.1j, math.nan])
def test_a_ratio_past_three_quarters_is_refused(x):
    # summed regardless, the series gives -1.3e10 + 8.9e9i at 1.5j, and
    # -1.6276 at 0.999 against -Li2(0.999) = -1.6370
    with pytest.raises(DomainError, match="ratio"):
        series_values([("1", "0")], PS, x)


@pytest.mark.parametrize("x", [0.75j, -0.75, 0.5 + 0.5j, 0.3 - 0.1j, 1e-9j])
def test_series_values_match_the_dilogarithm_up_to_three_quarters(x):
    want = -complex(mpmath.polylog(2, mpmath.mpc(x)))
    got = series_values([("1", "0")], PS, x)[("1", "0")]
    assert abs(got - want) <= 4e-16 * max(1.0, abs(want))


def test_series_values_scale_to_the_nearest_puncture():
    # the letter at 1/100000 has coefficients up to 1e5^194 in x; in
    # x / 1e-5 they stay below one
    ps = PoleSet.of("0,1/100000")
    a = 1e-5
    for x in (0.74e-5j, -0.5e-5 + 0.2e-5j):
        vals = series_values([("1/100000", "0"), ("1/100000",) * 3], ps, x)
        li2 = -complex(mpmath.polylog(2, mpmath.mpc(x) / a))
        power = complex(mpmath.log(1 - mpmath.mpc(x) / a) ** 3 / 6)
        assert abs(vals[("1/100000", "0")] - li2) <= 1e-15
        assert abs(vals[("1/100000",) * 3] - power) <= 1e-15


def _bits(vals: dict) -> tuple:
    """A value dict's keys in order and its values' bytes."""
    return list(vals), np.array(list(vals.values()), dtype=complex).tobytes()


def test_series_values_are_the_two_path_reference_bit_for_bit():
    # seeded calls: five pole sets, centers 0 and 1, 1 to 5 words of 1 to 6
    # letters and |x| / r from 0.05 to 0.74, one call in four on the real
    # axis with either signed zero, where a value's zero parts keep their
    # signs, against series_checks.reference_series_values, which summed a
    # prefix of one row after the steps and any other as it was stepped
    rng = random.Random(40)
    pole_sets = [PoleSet.of(p) for p in
                 ("0,1", "0,1,-1", "0,1,-1,i", "0,1/2,2", "0,1/100,1")]
    for k in range(400):
        ps, center = rng.choice(pole_sets), rng.choice((0, 1))
        words = [tuple(rng.choice(ps.labels) for _ in range(rng.randint(1, 6)))
                 for _ in range(rng.randint(1, 5))]
        r = min(abs(p - center) for p in ps.as_complex if p != center)
        x = rng.uniform(0.05, 0.74) * r * cmath.exp(1j * rng.uniform(-3, 3))
        if k % 4 == 0:
            x = complex(math.copysign(abs(x), x.real), rng.choice((0.0, -0.0)))
        got = series_values(words, ps, x, center)
        assert _bits(got) == _bits(
            reference_series_values(words, ps, x, center))
    assert series_values([()], PS, 0.25) == {(): 1.0 + 0j}
