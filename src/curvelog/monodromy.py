"""Monodromy of iterated integrals around the punctures.

A closed loop acts on the span of class words through the pairing that
integrates prefixes around the loop.  The action is lower unitriangular in
the weight grading, hence unipotent, and composes contravariantly with
loop concatenation.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from .curve_genus0 import PoleSet, Section
from .errors import DomainError, PathError
from .iterint import (ArcSeg, GroupLikeSeries, IntegratorConfig, Path,
                      integrate_h_words, j_element, label_words, plan_path)


@dataclass(frozen=True)
class Loop:
    """A closed path, composable with other loops at the same base point."""

    path: Path
    label: str = "loop"

    def __post_init__(self):
        p = self.path
        scale = max(1.0, abs(p.base))
        if abs(p.end - p.base) > 1e-9 * scale:
            raise PathError("loop does not close up")

    @property
    def base(self) -> complex:
        return self.path.base

    def __mul__(self, other: "Loop") -> "Loop":
        """Concatenation: traverse self first, then other."""
        scale = max(1.0, abs(self.base))
        if abs(other.base - self.base) > 1e-9 * scale:
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


def _default_radius(ps: PoleSet) -> float:
    m = ps.min_pairwise_distance
    return 0.45 * m if math.isfinite(m) else 1.0


def _loop_label(pole_label: str, turns: int) -> str:
    base = f"ccw({pole_label})"
    return base if turns == 1 else f"{base}^{turns}"


def circle_loop(ps: PoleSet, which, radius: float | None = None,
                turns: int = 1) -> Loop:
    """A plain circle around one puncture, based on the circle itself."""
    i = ps.index(which)
    s = ps.as_complex[i]
    radius = _default_radius(ps) if radius is None else float(radius)
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
    (negative for clockwise).
    """
    i = ps.index(which)
    s = ps.as_complex[i]
    base = complex(base)
    radius = _default_radius(ps) if radius is None else float(radius)
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
    circle = Path((ArcSeg(s, radius, th, th + 2 * math.pi * turns),), entry)
    return Loop(stick + circle + stick.reverse(), _loop_label(ps.label(i), turns))


def pairing(loop: Loop, section: Section, weight: int | None = None,
            cfg: IntegratorConfig | None = None) -> GroupLikeSeries:
    """Integrals of all class words up to a weight bound around a loop."""
    cfg = cfg or IntegratorConfig()
    if weight is not None:
        cfg = replace(cfg, weight=int(weight))
    return j_element(loop.path, section, cfg)


class MonodromyOperator:
    """The matrix of a loop acting on class words up to a weight bound.

    Rows and columns are indexed by the canonically ordered word basis;
    the entry at (w, v) is the loop integral of the prefix u whenever
    w = u v, and zero when v is not a suffix of w.
    """

    def __init__(self, basis, matrix, poles: PoleSet):
        self.basis = tuple(tuple(w) for w in basis)
        self.index = {w: i for i, w in enumerate(self.basis)}
        self.matrix = np.asarray(matrix, dtype=complex)
        if self.matrix.shape != (len(self.basis), len(self.basis)):
            raise DomainError("matrix shape does not match the word basis")
        self.poles = poles

    @property
    def weight(self) -> int:
        return max((len(w) for w in self.basis), default=0)

    def entry(self, w, v) -> complex:
        return self.matrix[self.index[tuple(w)], self.index[tuple(v)]]

    def __matmul__(self, other: "MonodromyOperator") -> "MonodromyOperator":
        if self.basis != other.basis:
            raise DomainError("operators over different word bases")
        return MonodromyOperator(self.basis, self.matrix @ other.matrix,
                                 self.poles)

    def act(self, values: dict) -> dict:
        """Push a word-indexed value vector through the operator."""
        vec = np.array([values[w] for w in self.basis], dtype=complex)
        out = self.matrix @ vec
        return {w: out[i] for i, w in enumerate(self.basis)}

    def deviation(self) -> np.ndarray:
        return self.matrix - np.eye(len(self.basis))

    def unipotence_residual(self) -> float:
        """Largest entry of (M - Id)^(weight + 1); zero for a true action."""
        n = self.deviation()
        power = np.eye(len(self.basis), dtype=complex)
        for _ in range(self.weight + 1):
            power = power @ n
        return float(np.max(np.abs(power))) if power.size else 0.0

    def is_unitriangular(self, tol: float = 0.0) -> bool:
        for i, w in enumerate(self.basis):
            for j, v in enumerate(self.basis):
                e = self.matrix[i, j]
                if i == j:
                    if e != 1:
                        return False
                elif len(v) > len(w) or not _is_suffix(v, w):
                    if abs(e) > tol:
                        return False
        return True


def _is_suffix(v, w) -> bool:
    return len(v) <= len(w) and w[len(w) - len(v):] == v


def monodromy_operator(loop: Loop, section: Section,
                       weight: int | None = None,
                       cfg: IntegratorConfig | None = None
                       ) -> MonodromyOperator:
    """Integrate every class word around the loop and assemble the action.

    Continuing around the loop first, a word's integral picks up the loop
    integral of each prefix against the remaining suffix, so the operator
    row of a word collects the pairing values of its prefixes."""
    series = pairing(loop, section, weight, cfg)
    basis = label_words(section.poles, series.weight)
    n = len(basis)
    index = {w: i for i, w in enumerate(basis)}
    M = np.zeros((n, n), dtype=complex)
    for w in basis:
        i = index[w]
        for k in range(len(w) + 1):
            prefix, suffix = w[:k], w[k:]
            M[i, index[suffix]] += series.values[prefix]
    return MonodromyOperator(basis, M, section.poles)


def unipotence_check(op: MonodromyOperator) -> bool:
    """True when the stored array is unit lower triangular in weight and its
    deviation from the identity is nilpotent as honest array arithmetic."""
    return op.is_unitriangular(tol=0.0) and op.unipotence_residual() == 0.0


def period_matrix(section: Section, radius: float | None = None,
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
        lp = circle_loop(ps, i, radius)
        vals, _ = integrate_h_words(lp.path, words, section, cfg)
        for col, w in enumerate(words):
            P[i, col] = vals[w]
    return P
