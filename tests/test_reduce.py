import hashlib
import json
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvelog import (
    QI,
    Differential,
    DomainError,
    InputError,
    KernelWitness,
    NormalForm,
    PoleSet,
    RationalFunction,
    Section,
    ShuffleTensor,
    d,
    d_map,
    decompose,
    decompose_subker,
    default_basepoint,
    dlog,
    eval_L,
    kernel_member,
    normal_form,
    plan_path,
    tensor_to_json,
)
import curvelog.reduce
from curvelog import curve_genus0
from curvelog.curve_genus0 import (_pole_ints, _rf, _section_vectors,
                                   _vl, _vtotal)
from curvelog.scalars import accumulate
from curvelog.selftest import _letter_pool_omega, _rand_tensor
from series_checks import (_gaussian, _random_function,
                           reference_antiderivative, reference_decompose,
                           reference_decompose_subker,
                           reference_evaluate_exact, reference_kernel_member,
                           reference_mul, reference_normal_form,
                           reference_section_vectors, reference_subker_sweep,
                           reference_times_letter, reference_times_z)

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


def test_default_basepoint_refuses_a_pole_set_that_covers_the_grid():
    # a pole at each of the 81 half-integer points of [-2, 2]^2
    halves = [Fraction(n, 2) for n in range(-4, 5)]
    ps = PoleSet(tuple(QI(a, b) for a in halves for b in halves))
    message = "^no grid point clears the pole set$"
    with pytest.raises(DomainError, match=message):
        default_basepoint(ps)
    t = ShuffleTensor.from_word((dlog(ps, 0),))
    with pytest.raises(DomainError, match=message):
        normal_form(t, Section.standard(ps))


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
    # the zero function: every product with it cancels, on either side
    assert d_map(s, RationalFunction.zero(PS), s).is_zero
    # a zero right factor
    assert d_map(s, one, ShuffleTensor.zero()).is_zero


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
    nf = normal_form(gen, SEC, X0)
    assert nf.is_zero and str(nf) == "0" and nf.evaluate(0.5) == 0j


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


def _subker_cases(sub, section, x0):
    """(exact pieces at a nonempty class word u, those among them whose
    by-parts chain writes a constant residue back to u) in a representative:
    the piece's normal form at u is then more than its fp."""
    label_of = dict(zip(section.forms, section.poles.labels))
    exact = back = 0
    for w in sub.terms:
        if len(w) > 1 and w[-1] not in label_of:
            exact += 1
            u = tuple(label_of[letter] for letter in w[:-1])
            nf = normal_form(ShuffleTensor.from_word(w), section, x0)
            back += nf.coefficient(u) != w[-1].f.antiderivative()
    return exact, back


def test_decompose_subker_matches_the_per_piece_fold():
    ps = PoleSet.of("0,1")
    sec, x0 = Section.standard(ps), default_basepoint(ps)
    # an exact piece at u = (0, 1); in the second tensor z sigma_1 has a
    # residue at 1, so the chain writes a constant back to (0, 1)
    head = sec.word(("0", "1"))
    hand = [ShuffleTensor.from_word(head + (d(rf_pole("1", 1)),))
            + ShuffleTensor.from_word(head, QI(2)),
            ShuffleTensor.from_word(head + (d(RationalFunction.coordinate(ps)),))
            + ShuffleTensor.from_word(head, QI(2))]
    wants = [reference_decompose_subker(t, sec, x0) for t in hand]
    assert [decompose_subker(t, sec, x0) for t in hand] == wants
    assert [_subker_cases(sub, sec, x0) for sub, _ in wants] == [(1, 0), (1, 1)]
    exact = back = 0
    for spec, seed in (("0,1", 31), ("0,1,-1/2,i", 32)):
        ps = PoleSet.of(spec)
        rng = random.Random(seed)
        pool = _letter_pool_omega(ps)
        x0 = default_basepoint(ps)
        for sec in (Section.standard(ps), _corrected_section(rng, ps)):
            for _ in range(12):
                t = _rand_tensor(rng, pool)
                want = reference_decompose_subker(t, sec, x0)
                assert decompose_subker(t, sec, x0) == want
                e, b = _subker_cases(want[0], sec, x0)
                exact, back = exact + e, back + b
    assert exact > 0 and back > 0


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
    # through the corrected section (1/(z - 1), z) the payload keeps it
    sec = Section(PS, (rf_pole("1", 1), f))
    t = (ShuffleTensor.from_word((mixed, omega("1")))
         + ShuffleTensor.from_word((omega("0"),)))
    nf = normal_form(t, sec, X0)
    obj = nf.to_json()
    assert len(obj["section"]) == 2
    back = NormalForm.from_json(obj)
    assert back.terms == nf.terms and back.section == nf.section
    assert back.basepoint == nf.basepoint
    assert back.evaluate(0.4 + 0.7j) == nf.evaluate(0.4 + 0.7j)


@pytest.mark.parametrize("word", ["-1", ["7"], ["0", 1]])
def test_normal_form_json_rejects_a_word_that_names_no_class(word):
    # "-1" would read as the letters "-" and "1", and each of these
    # payloads would fail only later, in evaluate
    ps = PoleSet.of("0,1,-1")
    t = ShuffleTensor.from_word((dlog(ps, "-1"),))
    obj = normal_form(t, Section.standard(ps)).to_json()
    assert obj["terms"][0]["word"] == ["-1"]
    obj["terms"][0]["word"] = word
    with pytest.raises(InputError):
        NormalForm.from_json(obj)


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


# sha256 of the outputs below, recorded before the coefficient sums were
# routed through scalars.accumulate; exact results must not move
GOLDEN_SHA256 = ("70c2f9c9b6ed3018610e8f5d9d7d3aeb"
                 "2d35b683d0af9cef9cd6da8734f18db2")


def test_exact_outputs_match_the_golden_digest():
    def encode(letter):
        return letter.f.to_json()

    digest = hashlib.sha256()
    for spec, seed in (("0,1", 11), ("0,1,-1/2,i", 12)):
        ps = PoleSet.of(spec)
        sec = Section.standard(ps)
        x0 = default_basepoint(ps)
        rng = random.Random(seed)
        pool = _letter_pool_omega(ps)
        for _ in range(25):
            t = _rand_tensor(rng, pool)
            sub, ker = decompose_subker(t, sec, x0)
            obj = [normal_form(t, sec, x0).to_json(),
                   tensor_to_json(sub, encode), tensor_to_json(ker, encode)]
            digest.update(json.dumps(obj, sort_keys=True).encode())
    assert digest.hexdigest() == GOLDEN_SHA256


def _corrected_section(rng, ps):
    """A section with a correction g at every pole, so each form is
    dz/(z - s) + dg with both a polynomial and a principal part in dg."""
    n = len(ps)
    return Section(ps, tuple(
        RationalFunction(ps, (QI(0), _gaussian(rng), _gaussian(rng)),
                         ((((i + 1) % n, 1), _gaussian(rng)),))
        for i in range(n)))


# sha256 of the outputs below, recorded on the Fraction-backed scalars:
# a corrected section, Gaussian coefficients and non-real basepoints
GOLDEN_CORRECTED_SHA256 = ("2fc9f3d340bf5eebd34a0784a8f4b393"
                           "0d76427582794cbd35cb6bb8b1620ddb")


def test_corrected_section_outputs_match_the_golden_digest():
    def encode(letter):
        return letter.f.to_json()

    digest = hashlib.sha256()
    for spec, seed, x0 in (("0,1", 21, QI(Fraction(1, 3), Fraction(-5, 7))),
                           ("0,1,-1/2,i", 22, QI(Fraction(-2, 3), 2))):
        ps = PoleSet.of(spec)
        rng = random.Random(seed)
        sec = _corrected_section(rng, ps)
        pool = [Differential(rf_pole(i % len(ps), k, _gaussian(rng), ps))
                for i, k in ((0, 1), (1, 1), (0, 2), (1, 2), (2, 1))]
        pool.append(Differential(RationalFunction(ps, (_gaussian(rng),))))
        z = QI(Fraction(5, 11), Fraction(-3, 4))
        for _ in range(12):
            t = ShuffleTensor.zero()
            for _ in range(2):
                w = tuple(rng.choice(pool) for _ in range(rng.randint(1, 3)))
                t = t + ShuffleTensor.from_word(w, _gaussian(rng))
            nf = normal_form(t, sec, x0)
            sub, ker = decompose_subker(t, sec, x0)
            obj = [nf.to_json(), tensor_to_json(sub, encode),
                   tensor_to_json(ker, encode),
                   [str(f.evaluate_exact(z)) for _, f in nf.terms]]
            digest.update(json.dumps(obj, sort_keys=True).encode())
    assert digest.hexdigest() == GOLDEN_CORRECTED_SHA256


def test_int_kernels_match_the_qi_references():
    # every step the kernels replaced, on the QI-per-coefficient bodies it
    # had, exactly, through the standard and a corrected section
    z = QI(Fraction(5, 11), Fraction(-3, 4))
    for spec, seed in (("0,1,-1/2,i", 31), ("0,1/3+2/5i,-2", 32)):
        ps = PoleSet.of(spec)
        rng = random.Random(seed)
        sections = (Section.standard(ps), _corrected_section(rng, ps))
        for _ in range(60):
            f, g = _random_function(rng, ps), _random_function(rng, ps)
            assert f * RationalFunction.coordinate(ps) == reference_times_z(f)
            for i in range(len(ps)):
                step = _vl(f.vec, i, _pole_ints(ps))
                assert _rf(ps, step) == (
                    reference_times_letter(f, i))
            assert f * g == reference_mul(f, g)
            assert f.evaluate_exact(z) == reference_evaluate_exact(f, z)
            exact = RationalFunction(ps, f.poly, tuple(
                (key, c) for key, c in f.principal if key[1] > 1))
            assert exact.antiderivative() == reference_antiderivative(exact)
            for sec in sections:
                assert (decompose(Differential(f), sec)
                        == reference_decompose(Differential(f), sec))


@pytest.mark.parametrize("spec", ["0", "0,1", "0,1,-1,i", "0,1/2,2",
                                  "1/3+2/5i,-2,1/2i,-1-i"])
def test_standard_section_vectors_are_the_closed_form(spec):
    # the standard section, and one built with zero corrections by hand,
    # skip the cached route; their vectors are the ones the RationalFunction
    # route built, and each form's is that of 1/(z - s_i)
    ps = PoleSet.of(spec)
    zeros = Section(ps, tuple(RationalFunction.zero(ps) for _ in ps))
    cached = curve_genus0._corrected_vectors
    misses = cached.cache_info().misses
    for sec in (Section.standard(ps), zeros):
        got = _section_vectors(sec)
        assert got == reference_section_vectors(sec)
        assert got[0] is None
        assert list(got[1]) == list(ps.labels)
        for i, lab in enumerate(ps.labels):
            assert got[1][lab] == RationalFunction.pole_power(ps, i, 1).vec
    info = cached.cache_info()
    assert info.misses == misses and info.currsize <= info.maxsize


def test_a_corrected_section_goes_through_the_cached_route():
    ps = PoleSet.of("0,1,-1/2,i")
    sec = _corrected_section(random.Random(7), ps)
    cached = curve_genus0._corrected_vectors
    cached.cache_clear()
    first = _section_vectors(sec)
    assert _section_vectors(sec) is first
    info = cached.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert first == reference_section_vectors(sec)
    assert first[0] is not None


@st.composite
def _membership_case(draw):
    """A standard or corrected section, a non-real basepoint, and one of: a
    kernel generator with its witness, a generator plus a section word,
    the zero tensor, or a tensor of drawn words; with whether the tensor is
    known to be in the kernel (None when not known)."""
    ps = PoleSet.of(draw(st.sampled_from(("0,1", "0,1,-1/2,i"))))
    if draw(st.booleans()):
        sec = Section.standard(ps)
    else:
        sec = Section(ps, tuple(draw(_rational(ps)) for _ in range(len(ps))))
    x0 = draw(st.builds(QI, st.fractions(-3, 3, max_denominator=3),
                        st.fractions(-3, 3, max_denominator=3)
                        .filter(lambda y: y != 0)))
    pool = [dlog(ps, 0), Differential(RationalFunction.const(ps, 1))]
    pool += [Differential(draw(_rational(ps))) for _ in range(2)]
    letters = st.sampled_from(pool)
    kind = draw(st.sampled_from(("generator", "outsider", "zero", "words")))
    if kind == "zero":
        return ShuffleTensor.zero(), sec, x0, True
    if kind == "words":
        t = ShuffleTensor.zero()
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            word = tuple(draw(st.lists(letters, max_size=3)))
            t = t + ShuffleTensor.from_word(word, draw(_small_qi))
        return t, sec, x0, None
    s = ShuffleTensor.from_word(tuple(draw(st.lists(letters, max_size=1))))
    f = draw(_rational(ps))
    sp = ShuffleTensor.from_word(
        tuple(draw(st.lists(letters, min_size=1, max_size=2))))
    witness = KernelWitness(x0, ((s, f, sp),))
    t = witness.tensor()
    assert witness.certifies(t)
    if kind == "generator":
        return t, sec, x0, True
    u = tuple(draw(st.lists(st.sampled_from(ps.labels), min_size=1,
                            max_size=2)))
    return t + ShuffleTensor.from_word(sec.word(u)), sec, x0, False


# 100 draws, not the suite's 40: at 40 the derandomized draws give no
# standard-section case of drawn words and one corrected generator
@settings(max_examples=100)
@given(_membership_case())
def test_kernel_member_and_decompose_subker_match_their_old_bodies(case):
    # kernel_member reads the fold's root where it built the normal form,
    # and decompose_subker keys each word once where it took
    # max(acc, key=word_sort_key) on every pass
    t, sec, x0, known = case
    member = kernel_member(t, sec, x0)
    assert member == reference_kernel_member(t, sec, x0)
    assert member == normal_form(t, sec, x0).is_zero
    if known is not None:
        assert member is known
    assert decompose_subker(t, sec, x0) == reference_subker_sweep(t, sec, x0)


def test_kernel_member_reads_every_word_of_the_fold_root():
    # the root holds (0,) and (1,), where the generator's parts cancel,
    # ahead of (0, 1), the added section word's
    gen = d_map(ShuffleTensor.unit(), rf_pole("0", 1),
                ShuffleTensor.from_word((omega("1"),)), X0)
    t = gen + ShuffleTensor.from_word(SEC.word(("0", "1")))
    root, _ = curvelog.reduce._fold(t, SEC, X0)
    assert [(u, _rf(PS, _vtotal(parts)).is_zero)
            for u, parts in root.items()] == [
        (("0",), True), (("1",), True), (("0", "1"), False)]
    assert kernel_member(gen, SEC, X0) and not kernel_member(t, SEC, X0)
    # a coefficient with a principal part alone: the integral of d(1/z)
    # from X0 is 1/z - 1/X0, and the unit times 1/X0 leaves 1/z
    g = rf_pole("0", 1)
    t = (ShuffleTensor.from_word((d(g),))
         + ShuffleTensor.unit().scale(g.evaluate_exact(X0)))
    assert normal_form(t, SEC, X0).terms == (((), g),)
    assert not kernel_member(t, SEC, X0)


# The reference below is the rewriter the package used before the left fold:
# every letter expanded up front into class letters plus at most one exact
# letter d(f), with f read off by subtracting section.apply of the class,
# then exact letters removed from a queue by a lone, trailing, leading or
# interior rewrite, each of which shortens the word.

class _Exact:
    def __init__(self, f):
        self.f = f


def _decompose_reference(w, section):
    h = w.project()
    return h, (w.f - section.apply(h).f).antiderivative()


def _pieces_reference(w, section):
    h, f = _decompose_reference(w, section)
    pieces = [(section.poles.label(i), c) for i, c in h.nonzero()]
    if not f.is_zero:
        pieces.append((_Exact(f), QI(1)))
    return pieces


def _normal_form_reference(t, section, x0):
    ps = section.poles
    queue = []
    for word, coeff in t.terms.items():
        expanded = [((), RationalFunction.const(ps, coeff))]
        for letter in word:
            pieces = _pieces_reference(letter, section)
            expanded = [(w + (piece,), g.scale(c))
                        for w, g in expanded for piece, c in pieces]
        queue.extend(expanded)
    out = []

    def push_product(prefix, base, f, suffix, g):
        form = (base.f.differentiate() if isinstance(base, _Exact)
                else section.form(base).f)
        prod = form * f
        if not prod.is_zero:
            for piece, c in _pieces_reference(Differential(prod), section):
                queue.append((prefix + (piece,) + suffix, g.scale(c)))

    while queue:
        word, g = queue.pop()
        if g.is_zero:
            continue
        pos = next((i for i, letter in enumerate(word)
                    if isinstance(letter, _Exact)), None)
        if pos is None:
            out.append((word, g))
            continue
        f, n = word[pos].f, len(word)
        if n == 1:
            out.append(((), g * (f - f.evaluate_exact(x0))))
        elif pos == n - 1:
            queue.append((word[:-1], g * f))
            push_product(word[:n - 2], word[n - 2], f, (), g.scale(-1))
        elif pos == 0:
            push_product((), word[1], f, word[2:], g)
            queue.append((word[1:], g.scale(-f.evaluate_exact(x0))))
        else:
            push_product(word[:pos], word[pos + 1], f, word[pos + 2:], g)
            push_product(word[:pos - 1], word[pos - 1], f, word[pos + 1:],
                         g.scale(-1))
    return NormalForm(ps, section, x0, tuple(accumulate(out).items()))


_small_qi = st.builds(
    QI, st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.fractions(min_value=-3, max_value=3, max_denominator=4))


@st.composite
def _rational(draw, ps, max_order=2):
    poly = tuple(draw(st.lists(_small_qi, max_size=2)))
    principal = tuple(
        ((i, k), draw(_small_qi)) for i in range(len(ps))
        for k in [draw(st.integers(min_value=0, max_value=max_order))] if k)
    return RationalFunction(ps, poly, principal)


@st.composite
def _reduction_case(draw):
    ps = PoleSet.of(draw(st.sampled_from(("0,1", "0,1,-1/2,i"))))
    if draw(st.booleans()):
        sec = Section.standard(ps)
    else:
        sec = Section(ps, tuple(draw(_rational(ps)) for _ in range(len(ps))))
    x0 = draw(st.builds(QI, st.fractions(-3, 3, max_denominator=3),
                        st.fractions(-3, 3, max_denominator=3))
              .filter(lambda z: z not in ps.points))
    pool = [Differential(RationalFunction.zero(ps)),
            Differential(RationalFunction.const(ps, draw(_small_qi)))]
    pool += [Differential(draw(_rational(ps))) for _ in range(3)]
    t = ShuffleTensor.zero()
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        word = tuple(draw(st.lists(st.sampled_from(pool), max_size=4)))
        t = t + ShuffleTensor.from_word(word, draw(_small_qi))
    return t, sec, x0


@given(_reduction_case())
def test_normal_form_matches_the_rewriter_reference(case):
    t, sec, x0 = case
    assert normal_form(t, sec, x0) == _normal_form_reference(t, sec, x0)


@st.composite
def _shared_tail_case(draw):
    """Words that end in one common tail after random prefixes of different
    lengths (the empty word when both are empty; no word at all gives the
    zero tensor), optionally plus a kernel generator whose right factor
    ends in the same tail, through a standard or a corrected section."""
    ps = PoleSet.of(draw(st.sampled_from(("0,1", "0,1,-1/2,i"))))
    if draw(st.booleans()):
        sec = Section.standard(ps)
    else:
        sec = Section(ps, tuple(draw(_rational(ps)) for _ in range(len(ps))))
    x0 = draw(st.builds(QI, st.fractions(-3, 3, max_denominator=3),
                        st.fractions(-3, 3, max_denominator=3))
              .filter(lambda z: z not in ps.points))
    pool = [dlog(ps, 0), Differential(RationalFunction.const(ps, 1))]
    pool += [Differential(draw(_rational(ps))) for _ in range(2)]
    letters = st.sampled_from(pool)
    tail = tuple(draw(st.lists(letters, max_size=2)))
    t = ShuffleTensor.zero()
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        prefix = tuple(draw(st.lists(letters, max_size=2)))
        t = t + ShuffleTensor.from_word(prefix + tail, draw(_small_qi))
    if draw(st.booleans()):
        s = ShuffleTensor.from_word(tuple(draw(st.lists(letters, max_size=1))))
        head = tuple(draw(st.lists(letters, min_size=1, max_size=2)))
        f = draw(_rational(ps))
        t = t + d_map(s, f, ShuffleTensor.from_word(head + tail), x0)
    return t, sec, x0


@given(_shared_tail_case())
def test_normal_form_matches_the_per_word_fold(case):
    t, sec, x0 = case
    assert normal_form(t, sec, x0) == reference_normal_form(t, sec, x0)


def test_a_shared_tail_is_folded_once(monkeypatch):
    # a generator's three words cancel before the tail its right factor
    # leaves after the first letter, so the fold never reaches that tail
    ps = PoleSet.of("0,1,-1")
    letters = [Differential(rf_pole("0", 3, ps=ps) + rf_pole("1", 2, 2, ps)
                            + rf_pole("-1", 1, ps=ps)),
               Differential(rf_pole("-1", 2, ps=ps) + rf_pole("0", 1, -1, ps)
                            + rf_pole("1", 3, QI(0, 1), ps))]
    s = ShuffleTensor.from_word((dlog(ps, "1"),))
    f = RationalFunction.coordinate(ps) + rf_pole("0", 2, ps=ps)
    calls = 0
    split = curvelog.reduce._split

    def counted(*args):
        nonlocal calls
        calls += 1
        return split(*args)

    monkeypatch.setattr(curvelog.reduce, "_split", counted)
    counts = []
    for n in (1, 4, 6):
        v = ShuffleTensor.from_word(tuple(letters[k % 2] for k in range(n)))
        calls = 0
        assert kernel_member(d_map(s, f, v), Section.standard(ps))
        counts.append(calls)
    assert counts[0] == counts[1] == counts[2]


def test_decompose_subker_folds_its_input_once(monkeypatch):
    # exact pieces at (0, 1) and (0,), each writing a constant back to its
    # class word, and a kernel generator: one fold, and no piece is folded
    # on its own
    head = SEC.word(("0", "1"))
    t = (ShuffleTensor.from_word(head + (d(RationalFunction.coordinate(PS)),))
         + ShuffleTensor.from_word(head[:1] + (d(rf_pole("1", 2)),), QI(3))
         + d_map(ShuffleTensor.unit(), rf_pole("0", 2),
                 ShuffleTensor.from_word((omega("1"),)), X0))
    folds = 0
    fold = curvelog.reduce._fold

    def counted(*args):
        nonlocal folds
        folds += 1
        return fold(*args)

    def refused(*args):
        raise AssertionError("normal_form called on a piece")

    want = reference_decompose_subker(t, SEC, X0)
    monkeypatch.setattr(curvelog.reduce, "_fold", counted)
    monkeypatch.setattr(curvelog.reduce, "normal_form", refused)
    assert decompose_subker(t, SEC, X0) == want
    assert folds == 1


def test_a_long_section_word_is_its_own_normal_form():
    rng = random.Random(5)
    labels = tuple(rng.choice(("0", "1")) for _ in range(2000))
    t = ShuffleTensor.from_word(SEC.word(labels), QI(3))
    assert normal_form(t, SEC, X0).terms == (
        (labels, RationalFunction.const(PS, 3)),)


_PS3 = PoleSet.of("0,1,-1")


@pytest.mark.parametrize("call, message", [
    (lambda: NormalForm(PS, SEC, X0, ((("0",), RationalFunction.const(PS, 1)),
                                      (("0",), RationalFunction.const(PS, 2)))),
     "normal form with a repeated word"),
    (lambda: NormalForm(PS, SEC, X0, ((("0",),
                                       RationalFunction.const(_PS3, 1)),)),
     "coefficients must live over the pole set"),
    (lambda: normal_form([dlog(PS, "0"), "1"], SEC, X0),
     "not a differential letter: '1'"),
    (lambda: normal_form(ShuffleTensor.from_word((dlog(PS, "0"), "1")), SEC,
                         X0),
     "not a differential letter: '1'"),
    (lambda: normal_form(dlog(_PS3, "1"), SEC, X0),
     "letter declared over a different pole set"),
], ids=["repeated-word", "coefficient-over-other-poles",
        "letter-in-an-iterable", "letter-in-a-tensor", "letter-other-poles"])
def test_a_refusal_names_its_cause(call, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        call()
