"""Monodromy of iterated integrals around the punctures.

A closed loop acts on class words through its Chen series, the loop
integrals of all words: w = u v picks up u's value times v (unipotent, and
contravariant in loop concatenation).  The operator is that series, an
``iterint.GroupLikeSeries``, one value per class word; ``curvelog
monodromy`` prints it as such.  Its dense matrix, entry (w, v) the value of
u when w = u v and 0 otherwise, is a view built on each read for the
benchmark's reader and not kept, capped at MATRIX_VIEW_MAX_BYTES.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .curve_genus0 import PoleSet, Section
from .errors import DEFAULT_WEIGHT, DomainError, PathError
from .iterint import (ArcSeg, GroupLikeSeries, IntegratorConfig, Path, glued,
                      integrate_h_words, j_element, plan_path)


@dataclass(frozen=True)
class Loop:
    """A closed path, composable with other loops at the same base point."""

    path: Path
    label: str = "loop"

    def __post_init__(self):
        if not glued(self.path.base, self.path.end):
            raise PathError("loop does not close up")

    @property
    def base(self) -> complex:
        return self.path.base

    def __mul__(self, other: "Loop") -> "Loop":
        """Concatenation: traverse self first, then other."""
        if not glued(self.base, other.base):
            raise PathError("loops based at different points do not compose")
        return Loop(self.path + other.path, f"{self.label}*{other.label}")

    def inverse(self) -> "Loop":
        return Loop(self.path.reverse(), f"{self.label}^-1")

    def to_json(self):
        obj = self.path.to_json()
        obj["label"] = self.label
        return obj

    @classmethod
    def from_json(cls, obj) -> "Loop":
        return cls(Path.from_json(obj), str(obj.get("label", "loop")))


def _requested_radius(ps: PoleSet, radius) -> float:
    """The radius asked for, finite, or the default when None."""
    if radius is None:
        m = ps.min_pairwise_distance
        return 0.45 * m if math.isfinite(m) else 1.0
    radius = float(radius)
    if not math.isfinite(radius):
        raise DomainError(f"loop radius must be finite, not {radius!r}")
    return radius


def _loop_label(pole_label: str, turns: int) -> str:
    base = f"ccw({pole_label})"
    return base if turns == 1 else f"{base}^{turns}"


def circle_loop(ps: PoleSet, which, radius: float | None = None,
                turns: int = 1) -> Loop:
    """A plain circle around one puncture, based on the circle itself."""
    i = ps.index(which)
    s = ps.as_complex[i]
    radius = _requested_radius(ps, radius)
    _validate_radius(ps, i, radius)
    if turns == 0:
        raise DomainError("a zero-turn circle is not a loop")
    arc = ArcSeg(s, radius, 0.0, 2 * math.pi * turns)
    return Loop(Path((arc,), s + radius), _loop_label(ps.label(i), turns))


def _validate_radius(ps: PoleSet, i: int, radius: float):
    if radius <= 0:
        raise DomainError("loop radius must be positive")
    if radius < ps.guard:
        raise DomainError("loop radius falls inside the puncture guard zone")
    s = ps.as_complex[i]
    for j, p in enumerate(ps.as_complex):
        if j != i and abs(p - s) <= radius + ps.guard:
            raise DomainError(
                f"radius {radius:.3g} around {ps.label(i)} reaches the "
                f"puncture {ps.label(j)}")


def loop_around(ps: PoleSet, which, base: complex,
                radius: float | None = None, turns: int = 1) -> Loop:
    """A based loop around one puncture: walk in, circle it, walk back.

    The approach is planned with the usual detours, enters the circle
    radially, and is retraced after ``turns`` counterclockwise turns
    (negative for clockwise).  Through the standard section ``j_element``
    integrates the retraced stick once: the loop's series is that of
    stick · circle convolved with the antipode of the stick's.
    """
    i = ps.index(which)
    s = ps.as_complex[i]
    base = complex(base)
    radius = _requested_radius(ps, radius)
    if turns == 0:
        raise DomainError("a zero-turn loop is trivial; refuse to build it")
    dist = abs(base - s)
    if dist == 0:
        raise PathError("cannot base a loop at the puncture it encircles")
    if dist <= 2 * radius:
        # the requested circle would swallow the base point; shrink it so a
        # radial entry still exists
        radius = dist / 2.0
    _validate_radius(ps, i, radius)
    e = (base - s) / dist
    entry = s + radius * e
    stick = plan_path(base, entry, ps)
    th = cmath.phase(e)
    circle = ArcSeg(s, radius, th, th + 2 * math.pi * turns)
    segs = stick.segments + (circle,) + stick.reverse().segments
    return Loop(Path(segs, base), _loop_label(ps.label(i), turns))


def pairing(loop: Loop, section: Section, weight: int = DEFAULT_WEIGHT,
            cfg: IntegratorConfig | None = None) -> GroupLikeSeries:
    """Integrals of all class words up to a weight bound around a loop."""
    return j_element(loop.path, section, weight, cfg)


# The operator is the series itself.  The name stays bound here because
# the benchmark's tracer spans ``MonodromyOperator.__matmul__`` and
# ``MonodromyOperator.act`` in this module.
MonodromyOperator = GroupLikeSeries


def monodromy_operator(loop: Loop, section: Section,
                       weight: int = DEFAULT_WEIGHT,
                       cfg: IntegratorConfig | None = None
                       ) -> GroupLikeSeries:
    """The loop's series as its operator: continuing around the loop first,
    a word picks up the loop integral of each prefix times its suffix."""
    return pairing(loop, section, weight, cfg)


def unipotence_check(op: GroupLikeSeries) -> bool:
    """True when the operator is unit lower triangular in weight: the series
    fills only the suffix pattern, so it is when the empty word's value is
    exactly 1 and every value is finite."""
    values = op.vector
    return bool(values[0] == 1 and np.all(np.isfinite(values)))


def period_matrix(section: Section,
                  cfg: IntegratorConfig | None = None) -> np.ndarray:
    """Circle integrals of every section form: rows are loops around the
    punctures, columns are the forms.  Weight-one loop integrals do not
    depend on a base point, so plain circles are enough."""
    cfg = cfg or IntegratorConfig()
    ps = section.poles
    words = [(lab,) for lab in ps.labels]
    n = len(ps)
    P = np.zeros((n, n), dtype=complex)
    for i in range(n):
        lp = circle_loop(ps, i)
        vals, _ = integrate_h_words(lp.path, words, section, cfg)
        for col, w in enumerate(words):
            P[i, col] = vals[w]
    return P
