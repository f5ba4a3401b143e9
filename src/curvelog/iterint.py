"""Numerical iterated integrals along explicit paths.

A word of differentials integrates through one joint triangular linear ODE
over all needed prefixes, solved with an adaptive embedded Runge-Kutta pair
of orders 5 and 4 (step rejection on the embedded error estimate).  Paths
are piecewise lines and circular arcs and must keep a guard distance from
every declared puncture.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import product
from typing import Iterable

import numpy as np

from .curve_genus0 import Differential, PoleSet, RationalFunction, Section
from .errors import DomainError, NumericError, PathError
from .scalars import QI
from .shuffle_core import (ShuffleTensor, _letter_label, r_xi, shuffle,
                           shuffle_words, word_sort_key)


@dataclass(frozen=True)
class LineSeg:
    start: complex
    end: complex

    def point(self, t: float) -> complex:
        return self.start + t * (self.end - self.start)

    def velocity(self, t: float) -> complex:
        return self.end - self.start

    def min_distance(self, p: complex) -> float:
        dvec = self.end - self.start
        L2 = dvec.real * dvec.real + dvec.imag * dvec.imag
        if L2 == 0:
            return abs(p - self.start)
        t = ((p - self.start) * dvec.conjugate()).real / L2
        t = min(1.0, max(0.0, t))
        return abs(p - (self.start + t * dvec))

    def reverse(self) -> "LineSeg":
        return LineSeg(self.end, self.start)

    def to_json(self):
        return {"line": [[self.start.real, self.start.imag],
                         [self.end.real, self.end.imag]]}


@dataclass(frozen=True)
class ArcSeg:
    center: complex
    radius: float
    theta0: float
    theta1: float

    def point(self, t: float) -> complex:
        th = self.theta0 + t * (self.theta1 - self.theta0)
        return self.center + self.radius * cmath.exp(1j * th)

    def velocity(self, t: float) -> complex:
        th = self.theta0 + t * (self.theta1 - self.theta0)
        return 1j * (self.theta1 - self.theta0) * self.radius * cmath.exp(1j * th)

    @property
    def start(self) -> complex:
        return self.point(0.0)

    @property
    def end(self) -> complex:
        return self.point(1.0)

    def min_distance(self, p: complex) -> float:
        rho = abs(p - self.center)
        if rho == 0:
            return self.radius
        lo, hi = sorted((self.theta0, self.theta1))
        inside = False
        if hi - lo >= 2 * math.pi - 1e-12:
            inside = True
        else:
            ang = cmath.phase(p - self.center)
            k0 = math.floor((lo - ang) / (2 * math.pi))
            k1 = math.ceil((hi - ang) / (2 * math.pi))
            for k in range(k0, k1 + 1):
                if lo - 1e-12 <= ang + 2 * math.pi * k <= hi + 1e-12:
                    inside = True
                    break
        if inside:
            return abs(rho - self.radius)
        return min(abs(p - self.start), abs(p - self.end))

    def reverse(self) -> "ArcSeg":
        return ArcSeg(self.center, self.radius, self.theta1, self.theta0)

    def to_json(self):
        return {"arc": {"center": [self.center.real, self.center.imag],
                        "radius": self.radius,
                        "from": self.theta0, "to": self.theta1}}


_GLUE_TOL = 1e-9


@dataclass(frozen=True)
class Path:
    """A contiguous chain of segments with an explicit base point."""

    segments: tuple
    base: complex

    def __post_init__(self):
        segs = tuple(self.segments)
        object.__setattr__(self, "segments", segs)
        object.__setattr__(self, "base", complex(self.base))
        cur = self.base
        for k, seg in enumerate(segs):
            scale = max(1.0, abs(cur))
            if abs(seg.start - cur) > _GLUE_TOL * scale:
                raise PathError(f"segment {k} does not start where the previous ends")
            cur = seg.end

    @classmethod
    def line(cls, a: complex, b: complex) -> "Path":
        a, b = complex(a), complex(b)
        if a == b:
            return cls((), a)
        return cls((LineSeg(a, b),), a)

    @classmethod
    def polyline(cls, points: Iterable[complex]) -> "Path":
        pts = [complex(p) for p in points]
        if not pts:
            raise PathError("empty polyline")
        segs = [LineSeg(a, b) for a, b in zip(pts, pts[1:]) if a != b]
        return cls(tuple(segs), pts[0])

    @property
    def end(self) -> complex:
        return self.segments[-1].end if self.segments else self.base

    def __add__(self, other: "Path") -> "Path":
        scale = max(1.0, abs(self.end))
        if abs(other.base - self.end) > _GLUE_TOL * scale:
            raise PathError("paths do not share an endpoint")
        return Path(self.segments + other.segments, self.base)

    def reverse(self) -> "Path":
        return Path(tuple(s.reverse() for s in reversed(self.segments)), self.end)

    def min_distance_to(self, points: Iterable[complex]) -> float:
        best = math.inf
        for p in points:
            p = complex(p)
            if not self.segments:
                best = min(best, abs(p - self.base))
                continue
            for seg in self.segments:
                best = min(best, seg.min_distance(p))
        return best

    def check_clearance(self, ps: PoleSet, guard: float | None = None):
        guard = ps.guard if guard is None else guard
        for p, lab in zip(ps.as_complex, ps.labels):
            dmin = self.min_distance_to([p])
            if dmin < guard:
                raise PathError(
                    f"path passes within {dmin:.3g} of the puncture {lab} "
                    f"(guard {guard:.3g})")

    def to_json(self):
        return {"base": [self.base.real, self.base.imag],
                "segments": [s.to_json() for s in self.segments]}

    @classmethod
    def from_json(cls, obj) -> "Path":
        try:
            base = complex(obj["base"][0], obj["base"][1])
            segs = []
            for item in obj.get("segments", []):
                if "line" in item:
                    (a, b), (c, e) = item["line"]
                    segs.append(LineSeg(complex(a, b), complex(c, e)))
                elif "arc" in item:
                    arc = item["arc"]
                    segs.append(ArcSeg(complex(arc["center"][0], arc["center"][1]),
                                       float(arc["radius"]),
                                       float(arc["from"]), float(arc["to"])))
                else:
                    raise KeyError("segment kind")
        except (KeyError, TypeError, IndexError, ValueError) as exc:
            raise PathError(f"malformed path payload: {exc}") from exc
        return cls(tuple(segs), base)


def plan_path(a: complex, b: complex, ps: PoleSet) -> Path:
    """A straight path from a to b, detouring around punctures that sit too
    close to the segment.  Detours are half circles on the left of the travel
    direction, which is above the poles for rightward travel."""
    a, b = complex(a), complex(b)
    if not (cmath.isfinite(a) and cmath.isfinite(b)):
        raise DomainError(f"cannot plan a path from {a!r} to {b!r}")
    if a == b:
        return Path((), a)
    guard = ps.guard
    u = (b - a) / abs(b - a)
    seg = LineSeg(a, b)
    detours = []
    m = ps.min_pairwise_distance
    for p in ps.as_complex:
        rho = 0.3 * m if math.isfinite(m) else 0.3 * max(1.0, abs(a - p))
        rho = min(rho, 0.8 * abs(a - p), 0.8 * abs(b - p))
        if rho <= 2 * guard:
            continue
        along = ((p - a) * u.conjugate()).real
        if not (1e-12 < along < abs(b - a) - 1e-12):
            continue
        if seg.min_distance(p) >= rho:
            continue
        detours.append((along, p, rho))
    detours.sort(key=lambda item: item[0])
    segs = []
    cur = a
    for _, p, rho in detours:
        q1 = p - rho * u
        q2 = p + rho * u
        if abs(q1 - cur) > 1e-14:
            segs.append(LineSeg(cur, q1))
        th1 = cmath.phase(q1 - p)
        segs.append(ArcSeg(p, rho, th1, th1 - math.pi))
        cur = q2
    if abs(b - cur) > 1e-14:
        segs.append(LineSeg(cur, b))
    path = Path(tuple(segs), a)
    path.check_clearance(ps)
    return path


def plan_chain(start: complex, points, ps: PoleSet):
    """One continuous planned path from start visiting the points in order,
    and for each point the index of the segment ending its leg (-1 while
    the chain has not yet left the start)."""
    segs: list = []
    marks = []
    cur = start
    for z in points:
        segs.extend(plan_path(cur, z, ps).segments)
        marks.append(len(segs) - 1)
        cur = z
    return Path(tuple(segs), start), marks


@dataclass(frozen=True)
class IntegratorConfig:
    rtol: float = 1e-10
    atol: float = 1e-12
    max_steps: int = 200_000
    weight: int = 6

    def __post_init__(self):
        for tol in (self.rtol, self.atol):
            if not (math.isfinite(tol) and tol > 0):
                raise DomainError("tolerances must be positive and finite")
        if self.max_steps < 1 or self.weight < 0:
            raise DomainError("bad integrator limits")


# Dormand-Prince 5(4) tableau
_DP_C = (0.0, 0.2, 0.3, 0.8, 8.0 / 9.0, 1.0, 1.0)
_DP_A = (
    (),
    (0.2,),
    (3.0 / 40.0, 9.0 / 40.0),
    (44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0),
    (19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0),
    (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0,
     -5103.0 / 18656.0),
    (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0,
     11.0 / 84.0),
)
_DP_ERR = (35.0 / 384.0 - 5179.0 / 57600.0,
           0.0,
           500.0 / 1113.0 - 7571.0 / 16695.0,
           125.0 / 192.0 - 393.0 / 640.0,
           -2187.0 / 6784.0 + 92097.0 / 339200.0,
           11.0 / 84.0 - 187.0 / 2100.0,
           -1.0 / 40.0)


class _WordSystem:
    """The triangular linear system y'_w = y_{parent(w)} * form_w(z) z'."""

    def __init__(self, words: Iterable[tuple], form_of):
        closure = {(): None}
        for w in words:
            w = tuple(w)
            for k in range(1, len(w) + 1):
                closure.setdefault(w[:k], None)
        order = sorted(closure, key=word_sort_key)
        self.words = order
        self.index = {w: i for i, w in enumerate(order)}
        self.n = len(order)
        evaluators = []
        slot_of: dict = {}
        parents = [0] * self.n
        slots = [0] * self.n
        for i, w in enumerate(order):
            if not w:
                continue
            parents[i] = self.index[w[:-1]]
            f = form_of(w[-1])
            key = (f.poles.key, f.poly, f.principal)
            if key not in slot_of:
                slot_of[key] = len(evaluators)
                evaluators.append(f.compiled())
            slots[i] = slot_of[key]
        self.parents = np.asarray(parents, dtype=np.intp)
        self.slots = np.asarray(slots, dtype=np.intp)
        self.evaluators = evaluators
        self.nforms = len(evaluators)

    def rhs(self, z: complex, dz: complex, y: np.ndarray) -> np.ndarray:
        vals = np.empty(self.nforms, dtype=complex)
        for j, ev in enumerate(self.evaluators):
            vals[j] = ev(z)
        vals *= dz
        out = np.zeros_like(y)
        if self.n > 1:
            out[1:] = y[self.parents[1:]] * vals[self.slots[1:]]
        return out


def _run(system: _WordSystem, path: Path, cfg: IntegratorConfig,
         capture_after=(), trace=False):
    y = np.zeros(system.n, dtype=complex)
    y[0] = 1.0
    captured = {}
    rows = []
    capture_after = set(capture_after)
    steps = 0
    for si, seg in enumerate(path.segments):
        t, h = 0.0, 0.1
        while t < 1.0 - 1e-15:
            h = min(h, 1.0 - t)
            ks = []
            y5 = None
            for stage in range(7):
                if stage == 0:
                    ys = y
                else:
                    acc = _DP_A[stage][0] * ks[0]
                    for m in range(1, stage):
                        a = _DP_A[stage][m]
                        if a:
                            acc = acc + a * ks[m]
                    ys = y + h * acc
                    if stage == 6:
                        y5 = ys
                ts = t + _DP_C[stage] * h
                ks.append(system.rhs(seg.point(ts), seg.velocity(ts), ys))
            err = _DP_ERR[0] * ks[0]
            for m in range(1, 7):
                e = _DP_ERR[m]
                if e:
                    err = err + e * ks[m]
            err = h * err
            sc = cfg.atol + cfg.rtol * np.maximum(np.abs(y), np.abs(y5))
            errnorm = float(np.max(np.abs(err) / sc)) if system.n else 0.0
            steps += 1
            if steps > cfg.max_steps:
                raise NumericError("integration step budget exhausted")
            if errnorm <= 1.0:
                t += h
                y = y5
                if trace:
                    rows.append((si + t, y.copy()))
                grow = 5.0 if errnorm == 0.0 else min(5.0, max(0.2, 0.9 * errnorm ** -0.2))
                h *= grow
            else:
                h *= max(0.1, 0.9 * errnorm ** -0.2)
                if h < 1e-13:
                    raise NumericError("step size underflow near a singular point")
        if si in capture_after:
            captured[si] = y.copy()
    return y, captured, rows


def _integrate(path: Path, words: Iterable[tuple], poles: PoleSet, form_of,
               cfg: IntegratorConfig | None, capture_after=(), trace=False):
    """The one integration body behind the typed front doors: clearance,
    the joint word system with letters resolved by form_of, the run, and
    every value vector unpacked into a word-keyed dict."""
    cfg = cfg or IntegratorConfig()
    path.check_clearance(poles)
    system = _WordSystem(words, form_of)
    y, captured, rows = _run(system, path, cfg, capture_after, trace)

    def unpack(vec):
        return {w: vec[i] for w, i in system.index.items()}

    caps = {si: unpack(vec) for si, vec in captured.items()}
    return unpack(y), caps, [(t, unpack(vec)) for t, vec in rows]


def integrate_words(path: Path, words: Iterable[tuple], poles: PoleSet,
                    cfg: IntegratorConfig | None = None, capture_after=(),
                    trace=False):
    """Joint integration of several differential words along one path.

    Returns (values at the endpoint, values captured after the listed
    segment indices, trace rows).  Values cover the full prefix closure.
    """
    def form_of(letter) -> RationalFunction:
        if not isinstance(letter, Differential):
            raise DomainError(f"not a differential letter: {letter!r}")
        if letter.poles.key != poles.key:
            raise DomainError(
                f"letter {letter.label} lives over poles "
                f"{letter.poles.key}; the clearance check covers "
                f"{poles.key}")
        return letter.f

    return _integrate(path, words, poles, form_of, cfg, capture_after, trace)


def integrate_h_words(path: Path, words: Iterable[tuple], section: Section,
                      cfg: IntegratorConfig | None = None, capture_after=()):
    """Joint integration of residue-class label words through a section."""
    ps = section.poles
    forms = {lab: section.form(lab).f for lab in ps.labels}

    def form_of(lab):
        try:
            return forms[lab]
        except KeyError:
            raise DomainError(f"unknown class letter {lab!r}") from None

    vals, caps, _ = _integrate(path, words, ps, form_of, cfg, capture_after)
    return vals, caps


@dataclass
class GroupLikeSeries:
    """Endpoint values of all class words up to a weight bound.

    The empty word maps to 1; the shuffle of two words maps to the product
    of their values up to the truncation order (group-likeness).
    """

    weight: int
    values: dict
    letters: tuple

    def value(self, word) -> complex:
        return self.values[tuple(word)]

    def grouplike_residual(self) -> float:
        worst = 0.0
        words = list(self.values)
        for a in words:
            for b in words:
                if len(a) + len(b) > self.weight:
                    continue
                prod = self.values[a] * self.values[b]
                tot = 0j
                for w, mult in shuffle_words(a, b).items():
                    tot += mult * self.values[w]
                worst = max(worst, abs(tot - prod))
        return worst

    def convolve(self, other: "GroupLikeSeries") -> "GroupLikeSeries":
        """Series of a concatenated loop via the deconcatenation coproduct."""
        weight = min(self.weight, other.weight)
        out = {}
        for w in self.values:
            if len(w) > weight:
                continue
            acc = 0j
            for k in range(len(w) + 1):
                left, right = w[:k], w[k:]
                if left in self.values and right in other.values:
                    acc += self.values[left] * other.values[right]
            out[w] = acc
        return GroupLikeSeries(weight, out, self.letters)


def label_words(ps: PoleSet, weight: int):
    """All class words of weight at most ``weight``, canonically ordered."""
    out = [()]
    for k in range(1, weight + 1):
        out.extend(product(ps.labels, repeat=k))
    return sorted(out, key=word_sort_key)


def j_element(path: Path, section: Section, cfg: IntegratorConfig | None = None
              ) -> GroupLikeSeries:
    """The universal group-like element: endpoint values of every class word
    up to the configured weight, integrated through the section."""
    cfg = cfg or IntegratorConfig()
    ps = section.poles
    words = label_words(ps, cfg.weight)
    vals, _ = integrate_h_words(path, words, section, cfg)
    return GroupLikeSeries(cfg.weight, vals, ps.labels)


def _tensor_value(t: ShuffleTensor, vals: dict) -> complex:
    acc = 0j
    for w, c in t.terms.items():
        acc += complex(c) * vals[w]
    return acc


def _poles_of_words(words) -> PoleSet | None:
    for w in words:
        for letter in w:
            if isinstance(letter, Differential):
                return letter.poles
    return None


def shuffle_identity_check(path: Path, a: ShuffleTensor, b: ShuffleTensor,
                           cfg: IntegratorConfig | None = None,
                           poles: PoleSet | None = None) -> float:
    """|I(a shuffle b) - I(a) I(b)| at the endpoint of the path."""
    prod = shuffle(a, b)
    words = set(a.terms) | set(b.terms) | set(prod.terms)
    if poles is None:
        poles = _poles_of_words(words)
    if poles is None:
        # all words are empty; both sides reduce to the counit product
        return abs(complex(prod.counit())
                   - complex(a.counit()) * complex(b.counit()))
    vals, _, _ = integrate_words(path, words, poles, cfg)
    return abs(_tensor_value(prod, vals)
               - _tensor_value(a, vals) * _tensor_value(b, vals))


def chain_rule_check(path1: Path, path2: Path, word,
                     cfg: IntegratorConfig | None = None,
                     poles: PoleSet | None = None) -> float:
    """Residual of composing a word's integral through a midpoint.

    The full integral along path1 + path2 must equal the coproduct pairing:
    sum over cuts of (prefix along path1) times (suffix along path2).
    """
    word = tuple(word)
    if not word:
        return 0.0
    if poles is None:
        poles = _poles_of_words([word]) or PoleSet(())
    full = integrate_words(path1 + path2, [word], poles, cfg)[0][word]
    pre, _, _ = integrate_words(path1, [word], poles, cfg)
    sufs = {word[k:] for k in range(len(word) + 1)}
    suf, _, _ = integrate_words(path2, sufs, poles, cfg)
    rhs = 0j
    for k in range(len(word) + 1):
        rhs += pre[word[:k]] * suf[word[k:]]
    return abs(full - rhs)


def nabla_sigma(a: ShuffleTensor, f: RationalFunction, section: Section):
    """Covariant derivative of the pair (class tensor, coefficient function).

    Returns summands (tensor, one-form): the exterior derivative of f against
    the unchanged tensor, plus, for each puncture, the last-letter contraction
    of the tensor against the section form multiplied by f.
    """
    out = []
    df = f.differentiate()
    if not a.is_zero and not df.is_zero:
        out.append((a, Differential(df)))
    ps = section.poles
    for i, lab in enumerate(ps.labels):
        contracted = r_xi(a, lambda letter, lab=lab:
                          1 if _letter_label(letter) == lab else 0)
        if contracted.is_zero:
            continue
        out.append((contracted, Differential(section.form(i).f * f)))
    return out


def kz_specialization_check(points) -> bool:
    """Restrict the symmetric pairwise-difference connection to a fiber where
    all coordinates but the last are frozen, and verify exactly that it
    collapses to the tautological one-variable connection.

    The pairwise sum runs over unordered index pairs.  For each pair the
    candidate restricted form is certified against the pair's difference
    function by exact cross multiplication, so a wrong residue or a sign
    slip cannot sneak through.  Repeated points are rejected.
    """
    pts = [QI.of(p) for p in points]
    if len(pts) < 2:
        raise DomainError("need at least two marked points")
    if len({p.sort_key() for p in pts}) != len(pts):
        raise DomainError("marked points must be pairwise distinct")
    ps = PoleSet(tuple(pts))
    n = len(pts)
    moving = n  # index of the free coordinate
    expected = {frozenset({i, moving}): RationalFunction.pole_power(ps, i, 1)
                for i in range(n)}
    restricted: dict = {}
    for j in range(n + 1):
        for k in range(j + 1, n + 1):
            if k < n:
                diff = RationalFunction.const(ps, pts[j] - pts[k])
            else:
                diff = RationalFunction.coordinate(ps) \
                    - RationalFunction.const(ps, pts[j])
            ddiff = diff.differentiate()
            if ddiff.is_zero:
                # both coordinates frozen: the term dies on the fiber
                continue
            omega = RationalFunction.pole_power(ps, j, 1)
            if not (omega * diff - ddiff).is_zero:
                return False
            restricted[frozenset({j, k})] = omega
    return restricted == expected
