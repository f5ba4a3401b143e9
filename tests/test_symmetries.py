"""Relations that hold exactly between values computed by different routes.

Relabelling: a pole set written in another order is the same set, so every
hyperlogarithm on it has the same value.  The deck group's action: a value
continued around a loop after its path is the deconcatenation of the
path's values with the loop's Chen series, path first.  The cases are
seeded, so the suite draws the same ones on every run.
"""

import itertools
import random

import pytest

from curvelog import (CurvelogError, PoleSet, Section, eval_L, loop_around,
                      monodromy_operator)

POLE_SETS = ("0,1", "0,1,-1", "0,1,-1,i,-i", "0,2,1/2")
CASES = 250  # per pole set


def _outcome(word, z, poles):
    """eval_L's value and path class, or the error it raises."""
    try:
        value = eval_L(word, z, poles)
    except CurvelogError as exc:
        return type(exc).__name__, str(exc)
    return complex(value), value.path_class


@pytest.mark.parametrize("spec", POLE_SETS)
def test_relabelling_the_pole_set_changes_no_value(spec):
    # measured: 1,000 cases, every pair bit-identical and none refused
    rng = random.Random(f"relabel {spec}")
    ps = PoleSet.of(spec)
    refused = 0
    for _ in range(CASES):
        word = tuple(rng.choice(ps.labels) for _ in range(rng.randint(1, 3)))
        z = complex(rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5))
        labels = list(ps.labels)
        rng.shuffle(labels)
        reordered = PoleSet.of(",".join(labels))
        assert reordered.labels == tuple(labels)
        want = _outcome(word, z, ps)
        assert _outcome(word, z, reordered) == want, (word, z, labels)
        refused += isinstance(want[0], str)
    assert refused == 0


@pytest.mark.parametrize("spec", POLE_SETS)
def test_a_loop_after_the_path_acts_by_its_series_on_the_right(spec):
    # eval_L(w, z, loop=g) integrates the planned path to z, then g; by
    # Chen's formula that is the sum over w = u v of L_u(z) S(v), where S
    # is monodromy_operator's series of g.  GroupLikeSeries.act sums
    # S(u) L_v, the loop first, which is off by up to 31 here.
    # Measured: 1,037 cases over the four pole sets, worst 1.2e-14 of
    # max(1, |v|)
    rng = random.Random(f"deck {spec}")
    ps = PoleSet.of(spec)
    words = [w for k in (1, 2, 3) for w in itertools.product(ps.labels,
                                                               repeat=k)]
    reversed_gap = 0.0
    for label in ps.labels:
        z = complex(rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5))
        while min(abs(z - p) for p in ps.as_complex) <= 0.25:
            z = complex(rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5))
        loop = loop_around(ps, label, z)
        series = monodromy_operator(loop, Section.standard(ps), 3).values
        path = {(): 1.0, **{w: complex(eval_L(w, z, ps)) for w in words}}
        for w in words:
            got = complex(eval_L(w, z, ps, loop=loop))
            want = sum(path[w[:k]] * series[w[k:]] for k in range(len(w) + 1))
            scale = max(1.0, abs(want))
            assert abs(got - want) <= 2e-14 * scale, (label, z, w)
            loop_first = sum(series[w[:k]] * path[w[k:]]
                             for k in range(len(w) + 1))
            reversed_gap = max(reversed_gap, abs(got - loop_first) / scale)
    assert reversed_gap > 1
