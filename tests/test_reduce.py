import random
from fractions import Fraction

import pytest

from curvelog import (
    QI,
    Differential,
    DomainError,
    KernelWitness,
    NormalForm,
    PoleSet,
    RationalFunction,
    Section,
    ShuffleTensor,
    d,
    d_map,
    decompose_subker,
    default_basepoint,
    dlog,
    eval_L,
    kernel_member,
    normal_form,
    plan_path,
)

PS = PoleSet.of("0,1")
SEC = Section.standard(PS)
X0 = QI(-2, -2)


def rf_pole(which, order, coeff=1, ps=PS):
    return RationalFunction.pole_power(ps, which, order, coeff)


def omega(label):
    return dlog(PS, label)


def test_default_basepoint_is_far_from_the_poles():
    x0 = default_basepoint(PS)
    assert x0 == QI(-2, -2)
    ps3 = PoleSet.of("0, 1, i")
    y0 = default_basepoint(ps3)
    assert min(abs(complex(y0) - p) for p in ps3.as_complex) > 1.0


def test_sigma_word_of_the_standard_section():
    w = SEC.word(("0", "1"))
    assert w == (omega("0"), omega("1"))


def test_normal_form_of_a_section_word_is_itself():
    t = ShuffleTensor.from_word(SEC.word(("0", "1")), QI(3))
    nf = normal_form(t, SEC)
    assert nf.terms == ((("0", "1"), RationalFunction.const(PS, 3)),)
    assert nf.weight == 2


def test_normal_form_of_a_double_pole():
    # dz/z^2 is exact; its integral from the basepoint 1 is 1 - 1/z...
    ps = PoleSet.of("0")
    sec = Section.standard(ps)
    t = ShuffleTensor.from_word((Differential(rf_pole("0", 2, ps=ps)),))
    nf = normal_form(t, sec, x0=QI(1))
    want = RationalFunction.const(ps, 1) - rf_pole("0", 1, ps=ps)
    assert nf.terms == (((), want),)
    # ...and vanishes at the basepoint itself
    assert nf.coefficient(()).evaluate_exact(QI(1)).is_zero


def test_normal_form_kills_constant_tensors():
    t = ShuffleTensor.unit().scale(QI(5))
    nf = normal_form(t, SEC)
    assert nf.terms == (((), RationalFunction.const(PS, 5)),)
    assert normal_form(ShuffleTensor.zero(), SEC).is_zero


def test_normal_form_splits_a_mixed_letter():
    # dz/z + dz (exact part z) against a section word
    f = RationalFunction.coordinate(PS)
    mixed = Differential(rf_pole("0", 1) + f.differentiate())
    t = ShuffleTensor.from_word((mixed,))
    nf = normal_form(t, SEC, x0=X0)
    assert nf.coefficient(("0",)) == RationalFunction.const(PS, 1)
    const = nf.coefficient(())
    assert const == f - RationalFunction.const(PS, X0)


def test_d_map_example():
    ps = PoleSet.of("0")
    w0 = dlog(ps, "0")
    f = RationalFunction.coordinate(ps)
    got = d_map((), f, ShuffleTensor.from_word((w0,)), x0=QI(1))
    one = RationalFunction.const(ps, 1)
    want = (ShuffleTensor.from_word((Differential(one), w0))
            - ShuffleTensor.from_word((Differential(one),))
            + ShuffleTensor.from_word((w0,)))
    assert got == want


def test_d_map_with_constant_function_vanishes():
    one = RationalFunction.const(PS, 1)
    s = ShuffleTensor.from_word((omega("0"),))
    assert d_map(s, one, s).is_zero


def test_d_map_rejects_empty_right_words():
    f = RationalFunction.coordinate(PS)
    with pytest.raises(DomainError):
        d_map((), f, ShuffleTensor.unit())


def test_d_map_lands_in_the_kernel():
    rng = random.Random(7)
    pool = [rf_pole("0", 1), rf_pole("1", 1), RationalFunction.coordinate(PS),
            rf_pole("0", 2, QI(Fraction(1, 2)))]
    letters = [omega("0"), omega("1"), Differential(rf_pole("1", 2))]
    for _ in range(10):
        s = ShuffleTensor.from_word(tuple(rng.choices(letters, k=rng.randrange(3))))
        sp = ShuffleTensor.from_word(tuple(rng.choices(letters, k=rng.randrange(1, 3))))
        f = rng.choice(pool)
        gen = d_map(s, f, sp, X0)
        assert kernel_member(gen, SEC, X0)


def test_kernel_witness_certifies_its_sum():
    f = RationalFunction.coordinate(PS)
    s = ShuffleTensor.unit()
    sp = ShuffleTensor.from_word((omega("1"),))
    triple = (s, f, sp)
    w = KernelWitness(X0, (triple,))
    assert w.certifies(d_map(s, f, sp, X0))
    assert not w.certifies(ShuffleTensor.from_word((omega("0"),)))


def test_normal_form_evaluate_matches_direct_integration(tight):
    f = RationalFunction.coordinate(PS)
    mixed = Differential(rf_pole("1", 1) + f.differentiate())
    t = (ShuffleTensor.from_word((mixed, omega("0")))
         + ShuffleTensor.from_word((omega("0"),), QI(2)))
    nf = normal_form(t, SEC, x0=X0)
    z = 0.4 + 0.7j
    got = nf.evaluate(z, cfg=tight)
    path = plan_path(complex(X0), z, PS)
    from curvelog import integrate_words
    vals, _, _ = integrate_words(path, list(t.terms), PS, tight)
    want = sum(complex(c) * vals[w] for w, c in t.terms.items())
    assert abs(got - want) < 1e-9
    assert abs(nf.evaluate(z, cfg=tight) - got) < 1e-12


def test_normal_form_evaluate_rejects_foreign_paths(tight):
    t = ShuffleTensor.from_word((omega("0"),))
    nf = normal_form(t, SEC, x0=X0)
    import curvelog
    bad = curvelog.Path.line(1.5, 2.5)  # does not start at the basepoint
    with pytest.raises(DomainError):
        nf.evaluate(2.5, path=bad, cfg=tight)


def test_decompose_subker_on_a_pure_section_word():
    t = ShuffleTensor.from_word(SEC.word(("1", "0")), QI(2))
    sub, ker = decompose_subker(t, SEC, X0)
    assert sub == t
    assert ker.is_zero


def test_decompose_subker_on_a_generator():
    f = rf_pole("0", 1)
    gen = d_map(ShuffleTensor.unit(), f, ShuffleTensor.from_word((omega("1"),)), X0)
    sub, ker = decompose_subker(gen, SEC, X0)
    assert sub.is_zero
    assert ker == gen


def test_decompose_subker_mixed():
    f = RationalFunction.coordinate(PS)
    gen = d_map(ShuffleTensor.from_word((omega("0"),)), f,
                ShuffleTensor.from_word((omega("1"),)), X0)
    rep = ShuffleTensor.from_word(SEC.word(("0",)), QI(Fraction(1, 2)))
    t = gen + rep
    sub, ker = decompose_subker(t, SEC, X0)
    assert sub + ker == t
    assert kernel_member(ker, SEC, X0)
    assert normal_form(sub, SEC, X0).terms == normal_form(t, SEC, X0).terms
    assert sub == rep


def test_decompose_subker_random_round_trip():
    rng = random.Random(41)
    letters = [omega("0"), omega("1"),
               Differential(rf_pole("0", 2)),
               Differential(RationalFunction.coordinate(PS).differentiate()),
               Differential(rf_pole("1", 1) + rf_pole("0", 3, QI(0, 1)))]
    coeffs = [QI(1), QI(-1), QI(2), QI(Fraction(1, 2)), QI(0, 1)]
    for _ in range(15):
        t = ShuffleTensor.zero()
        for _ in range(rng.randrange(1, 4)):
            w = tuple(rng.choices(letters, k=rng.randrange(0, 3)))
            t = t + ShuffleTensor.from_word(w, rng.choice(coeffs))
        sub, ker = decompose_subker(t, SEC, X0)
        assert sub + ker == t
        assert kernel_member(ker, SEC, X0)
        # the representative only uses section words and trailing exacts,
        # and its normal form agrees with the input's
        assert normal_form(sub, SEC, X0).terms == normal_form(t, SEC, X0).terms


def test_normal_form_linearity():
    f = RationalFunction.coordinate(PS)
    a = ShuffleTensor.from_word((Differential(f.differentiate()), omega("0")))
    b = ShuffleTensor.from_word((omega("1"), Differential(rf_pole("0", 2))))
    nfa = normal_form(a, SEC, X0)
    nfb = normal_form(b, SEC, X0)
    nfs = normal_form(a + b, SEC, X0)
    support = set(nfa.terms_map) | set(nfb.terms_map) | set(nfs.terms_map)
    for w in support:
        assert nfs.coefficient(w) == nfa.coefficient(w) + nfb.coefficient(w)


def test_normal_form_json_round_trip():
    f = RationalFunction.coordinate(PS)
    mixed = Differential(rf_pole("0", 1) + f.differentiate())
    nf = normal_form(ShuffleTensor.from_word((mixed, omega("1"))), SEC, X0)
    back = NormalForm.from_json(nf.to_json())
    assert back.terms == nf.terms
    assert back.basepoint == nf.basepoint
    assert "section" not in nf.to_json()


def test_basepoint_may_not_be_a_pole():
    t = ShuffleTensor.from_word((omega("0"),))
    with pytest.raises(DomainError):
        normal_form(t, SEC, x0=QI(1))
    # any non-puncture rational point works
    nf = normal_form(t, SEC, x0=QI(Fraction(1, 2)))
    assert nf.coefficient(("0",)) == RationalFunction.const(PS, 1)


def test_normal_form_weight_two_exact_square():
    # [d z | d z] integrates to (z - x0)^2 / 2; the normal form stores it
    # as a polynomial coefficient on the empty word
    dz = Differential(RationalFunction.const(PS, 1))
    t = ShuffleTensor.from_word((dz, dz))
    nf = normal_form(t, SEC, x0=QI(0, 0) + QI(2))
    f = nf.coefficient(())
    zq = QI(3)
    want = (zq - QI(2)) * (zq - QI(2)) / QI(2)
    assert f.evaluate_exact(zq) == want
