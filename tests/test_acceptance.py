"""One test per acceptance criterion.

Each case prints a single ``ACCEPTANCE n: PASS/FAIL`` line (visible with -v
through the test id as well) and fails if the criterion does.  The criteria
themselves live in curvelog.selftest so the installed package and this suite
run the identical battery; every derived constant in there is checked against
an oracle computed by independent means.
"""

import functools
from dataclasses import replace
from types import SimpleNamespace

import pytest

from curvelog import (QI, PoleSet, RationalFunction, ShuffleTensor, expand_at,
                      normal_form, selftest)

IDS = [f"ACCEPTANCE-{num:02d}-{label.replace(' ', '-').replace(',', '')}"
       for num, label, _ in selftest.CRITERIA]


@pytest.mark.parametrize("criterion", selftest.CRITERIA, ids=IDS)
def test_acceptance(criterion):
    num, label, fn = criterion
    passed, detail = fn(selftest.DEFAULT_SEED)
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {num}: {status} - {label} ({detail})")
    assert passed, f"ACCEPTANCE {num}: FAIL - {label} ({detail})"


def test_runner_reports_every_criterion():
    results = selftest.run(numbers=[8, 9])
    assert [r.number for r in results] == [8, 9]
    assert all(r.passed for r in results)
    assert all(r.detail for r in results)


def test_runner_swallows_crashes_into_failures(monkeypatch):
    def boom(seed):
        raise RuntimeError("synthetic")
    patched = ((1, "synthetic case", boom),)
    monkeypatch.setattr(selftest, "CRITERIA", patched)
    res = selftest.run()
    assert len(res) == 1 and not res[0].passed
    assert "synthetic" in res[0].detail


# Each branch a criterion takes only when its claim fails, run on purpose:
# a criterion that could only pass would check nothing.

def _failed(number):
    [result] = selftest.run(numbers=[number])
    assert result.passed is False
    return result.detail


def test_a_point_that_cannot_clear_the_punctures_fails_its_criterion(
        monkeypatch):
    # no point of the sampling box lies 10 from both 0 and 1
    monkeypatch.setattr(selftest, "_rand_point", functools.partial(
        selftest._rand_point, clearance=10.0))
    assert _failed(2) == ("raised RuntimeError: could not sample a clear "
                          "point")


class _OneWordTwice:
    """Draws two terms, each the pool's first letter alone, with the
    coefficients 1 and -1."""

    def __init__(self):
        self.ints = iter([2, 1, 1])
        self.signs = iter([1, -1])

    def randint(self, a, b):
        return next(self.ints)

    def choice(self, seq):
        return QI.of(next(self.signs)) if isinstance(seq[0], QI) else seq[0]


def test_a_random_tensor_that_cancels_is_replaced_by_one_letter():
    pool = selftest._letter_pool_omega(PoleSet.of("0,1"))
    t = selftest._rand_tensor(_OneWordTwice(), pool)
    assert t == ShuffleTensor.from_word((pool[2],))


def test_a_normal_form_past_its_filtration_fails_criterion_6(monkeypatch):
    # every coefficient times z: a top-weight constant is no longer one
    def lifted(t, sec, x0):
        nf = normal_form(t, sec, x0)
        z = RationalFunction.coordinate(nf.poles)
        return replace(nf, terms=tuple((u, f * z) for u, f in nf.terms))

    monkeypatch.setattr(selftest, "normal_form", lifted)
    assert "filtration bound FAILS" in _failed(6)


@pytest.mark.parametrize("split", [
    # the parts do not add up to the tensor
    lambda t: (ShuffleTensor.zero(), ShuffleTensor.zero()),
    # the kernel part has a normal form
    lambda t: (ShuffleTensor.zero(), t),
    # a kernel generator keeps a subspace part
    lambda t: (t, ShuffleTensor.zero()),
], ids=["sum", "kernel", "generator"])
def test_each_inconsistent_split_fails_criterion_7(split, monkeypatch):
    monkeypatch.setattr(selftest, "decompose_subker",
                        lambda t, sec, x0: split(t))
    assert "splits consistent: False" in _failed(7)


def test_a_wrong_coradical_membership_fails_criterion_8(monkeypatch):
    member = selftest.coradical_member
    monkeypatch.setattr(selftest, "coradical_member",
                        lambda t, n: not member(t, n))
    assert _failed(8).endswith(": False")


def test_a_wrong_residue_fails_criterion_9(monkeypatch):
    # each dlog form doubled: it no longer certifies against its difference
    pole_power = RationalFunction.pole_power
    monkeypatch.setattr(RationalFunction, "pole_power", classmethod(
        lambda cls, ps, i, k: pole_power(ps, i, k).scale(2)))
    assert "two-point restriction: False" in _failed(9)


def test_a_log_degree_past_the_word_fails_criterion_10(monkeypatch):
    def deeper(word, ps, center, order):
        e = expand_at(word, ps, center, order=order)
        return SimpleNamespace(log_degree=len(word) + 1, evaluate=e.evaluate,
                               substitute_log_shift=e.substitute_log_shift)

    monkeypatch.setattr(selftest, "expand_at", deeper)
    assert "log degree bounded: False" in _failed(10)
