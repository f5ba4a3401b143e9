"""Checks on series values that only the tests need."""

from curvelog.shuffle_core import shuffle_words


def grouplike_residual(series) -> float:
    """The largest |S(a) S(b) - sum over w in a ш b of mult S(w)| over the
    word pairs of total length within the weight: 0 when S is group-like."""
    values = series.values
    worst = 0.0
    for a in values:
        for b in values:
            if len(a) + len(b) > series.weight:
                continue
            tot = 0j
            for w, mult in shuffle_words(a, b).items():
                tot += mult * values[w]
            worst = max(worst, abs(tot - values[a] * values[b]))
    return worst
