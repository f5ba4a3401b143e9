"""Numerical iterated integrals along explicit paths.

A word of differentials integrates jointly with all its prefixes: each word
is the integral of its parent times one form, so the system is strictly
lower triangular and is solved level by level (word length) with spectral
integration on Chebyshev-Lobatto nodes.  Each segment is planned in full
before it is integrated, in one sweep from its start: every piece is the
longest whose Bernstein ellipse (in the segment's own parameter, the angle
on an arc) keeps every puncture at rho >= 2 + sqrt(5), a length read in
closed form, and a piece is bisected while the Chebyshev tail of its values
exceeds the tolerance.  Paths are piecewise lines and circular arcs of
positive radius and must keep a guard distance from every declared
puncture.
"""

from __future__ import annotations

import cmath
import math
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property, lru_cache, wraps
from itertools import product
from numbers import Integral
from typing import Iterable

import numpy as np

from .curve_genus0 import Differential, PoleSet, RationalFunction, Section
from .errors import BudgetError, DomainError, NumericError, PathError


def _bernstein(a: complex, b: complex, p: complex) -> float:
    """The parameter rho of the Bernstein ellipse of [a, b] through p:
    (d + sqrt(d^2 - L^2)) / L for d = |p - a| + |p - b| and L = |b - a|,
    from t = d / L so that no length is squared (d * d overflows from
    about 1e154); infinite for a point interval, NaN when t is."""
    length = abs(b - a)
    if length == 0:
        return math.inf
    t = abs(p - a) / length + abs(p - b) / length
    return t + math.sqrt(max(0.0, (t - 1.0) * (t + 1.0)))


def _arc_bernstein(a: float, b: float, q: complex) -> float:
    """The Bernstein parameter of an arc's angles [a, b] for a puncture's
    image q (``ArcSeg.image``), at its turn nearest the middle angle."""
    mid = 0.5 * a + 0.5 * b
    arg = q.real + 2 * math.pi * round((mid - q.real) / (2 * math.pi))
    return _bernstein(a, b, complex(arg, q.imag))


def _line_distance(a: complex, b: complex, p: complex) -> tuple:
    """How far along the line from a to b p projects, and p's distance from
    the segment [a, b].  The projection is on the unit direction: dividing
    by the squared length overflows from about 1e154.  One past either end
    (or NaN, or on a point segment) gives that end's own distance: a + s u
    can round far from a tiny end, to 0 on the segment from 0.5 to 1e-320."""
    length = abs(b - a)
    u = (b - a) / length if length else 0j
    s = ((p - a) * u.conjugate()).real
    if not s > 0:
        return s, abs(p - a)
    return s, abs(p - (b if s >= length else a + s * u))


@dataclass(frozen=True)
class LineSeg:
    start: complex
    end: complex

    def point(self, t: float) -> complex:
        return self.start + t * (self.end - self.start)

    def nodes(self, t: np.ndarray, dt=1.0):
        """The points at the parameters t and the velocities there times
        dt, a piece's share of the parameter."""
        return self.point(t), dt * (self.end - self.start)

    @property
    def length(self) -> float:
        return abs(self.end - self.start)

    def piece(self, ta: float, tb: float) -> "LineSeg":
        return LineSeg(self.point(ta), self.point(tb))

    def min_distance(self, p: complex) -> float:
        return _line_distance(self.start, self.end, p)[1]

    def bernstein(self, p: complex) -> float:
        """The Bernstein parameter of the puncture p for this segment."""
        return _bernstein(self.start, self.end, p)

    def reverse(self) -> "LineSeg":
        return LineSeg(self.end, self.start)

    def sweep(self, p: complex) -> float:
        """The change of arg(w - p) as w runs along the segment."""
        return cmath.phase((self.end - p) / (self.start - p))

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
        return self.center + self.radius * np.exp(1j * th)

    def nodes(self, t: np.ndarray, dt=1.0):
        """The points at the parameters t and the velocities there times
        dt, from one exp; dt scales the angle first, so that a piece of a
        circle whose radius times its whole angle overflows does not."""
        th = self.theta0 + t * (self.theta1 - self.theta0)
        w = np.exp(1j * th)
        return (self.center + self.radius * w,
                1j * (dt * (self.theta1 - self.theta0)) * self.radius * w)

    # read once: glueing, sweeps and clearance each ask for the ends
    @cached_property
    def start(self) -> complex:
        return complex(self.point(0.0))

    @cached_property
    def end(self) -> complex:
        return complex(self.point(1.0))

    def piece(self, ta: float, tb: float) -> "ArcSeg":
        dth = self.theta1 - self.theta0
        return ArcSeg(self.center, self.radius,
                      self.theta0 + ta * dth, self.theta0 + tb * dth)

    def min_distance(self, p: complex) -> float:
        rho = abs(p - self.center)
        if rho == 0:
            return self.radius
        lo, hi = sorted((self.theta0, self.theta1))
        inside = False
        if hi - lo >= 2 * math.pi - 1e-12:
            inside = True
        else:
            w = p - self.center
            ang = math.atan2(w.imag, w.real)  # cmath.phase raises on underflow
            k0 = math.floor((lo - ang) / (2 * math.pi))
            k1 = math.ceil((hi - ang) / (2 * math.pi))
            for k in range(k0, k1 + 1):
                if lo - 1e-12 <= ang + 2 * math.pi * k <= hi + 1e-12:
                    inside = True
                    break
        if inside:
            return abs(rho - self.radius)
        return min(abs(p - self.start), abs(p - self.end))

    def image(self, p: complex) -> complex:
        """The puncture p in the arc's angle: z = c + r e^{i theta} meets p
        at theta_p + 2 pi k, theta_p = -i log((p - c) / r); this is k = 0.
        The center is never reached, and dz / (z - c) = i dtheta is
        constant, so it has no image and bounds nothing."""
        w = p - self.center
        return complex(math.atan2(w.imag, w.real),
                       math.log(self.radius) - math.log(abs(w)))

    def bernstein(self, p: complex) -> float:
        """The Bernstein parameter of the puncture p for this arc, in its
        angle (``_arc_bernstein``); the center bounds nothing."""
        if p == self.center:
            return math.inf
        return _arc_bernstein(self.theta0, self.theta1, self.image(p))

    def reverse(self) -> "ArcSeg":
        return ArcSeg(self.center, self.radius, self.theta1, self.theta0)

    def sweep(self, p: complex) -> float:
        """The change of arg(w - p) as w runs along the arc: its angle about
        its own center; about any other point, the angle its chord sweeps,
        plus one turn in the arc's direction for every full circle around
        p and one more when p lies between the rest of the arc and the
        chord (that region's boundary winds once around it)."""
        dth = self.theta1 - self.theta0
        if p == self.center:
            return dth
        chord = cmath.phase((self.end - p) / (self.start - p))
        if not abs(p - self.center) < self.radius:
            return chord
        full, rest = divmod(abs(dth), 2 * math.pi)
        between = False
        if rest > 0:
            mid = self.point(1.0 - 0.5 * rest / abs(dth))
            v = (self.end - self.start).conjugate()
            between = ((v * (p - self.start)).imag
                       * (v * (mid - self.start)).imag > 0)
        return chord + math.copysign(2 * math.pi, dth) * (full + between)

    def to_json(self):
        return {"arc": {"center": [self.center.real, self.center.imag],
                        "radius": self.radius,
                        "from": self.theta0, "to": self.theta1}}


_GLUE_TOL = 1e-9

# The largest modulus of a point plan_path joins and of a number in a path
# payload: numpy's complex division in the letters' evaluators overflows
# once |Re| + |Im| of z - s passes the largest float, about 1.8e308 (at
# 1e308 (1 + i) log z read 709.436 for 709.543).
_MAX_MODULUS = 1e306


def glued(a: complex, b: complex) -> bool:
    """Whether b is a within _GLUE_TOL times max(1, |a|); never for NaN."""
    return abs(a - b) <= _GLUE_TOL * max(1.0, abs(a))


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
            # a negative radius would put the arc on the far side of its
            # center, where the clearance and the planner do not look
            if isinstance(seg, ArcSeg) and not 0 < seg.radius < math.inf:
                raise PathError(f"segment {k} is an arc of radius "
                                f"{seg.radius!r}, not a positive finite "
                                "number")
            if not glued(cur, seg.start):
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
        if not glued(self.end, other.base):
            raise PathError("paths do not share an endpoint")
        return Path(self.segments + other.segments, self.base)

    def reverse(self) -> "Path":
        return Path(tuple(s.reverse() for s in reversed(self.segments)), self.end)

    def sweep(self, p: complex) -> float:
        """The change of arg(w - p) as w runs along the path; 2 pi times
        the winding number around p when the path is closed."""
        return sum(seg.sweep(p) for seg in self.segments)

    def _distances(self, points: Iterable[complex]):
        """The path's least distance to each point in turn (the base's when
        it has no segments), folded as min(best, d) from math.inf, so that
        a NaN distance is skipped; spelled as a comparison, which is what
        min does with two arguments, without the call."""
        segments, base = self.segments, self.base
        for p in points:
            p = complex(p)
            best = math.inf
            if not segments:
                d = abs(p - base)
                best = d if d < best else best
            for seg in segments:
                d = seg.min_distance(p)
                best = d if d < best else best
            yield best

    def min_distance_to(self, points: Iterable[complex]) -> float:
        return min(self._distances(points), default=math.inf)

    def check_clearance(self, ps: PoleSet):
        _check_distances(self._distances(ps.as_complex), ps)

    def to_json(self):
        return {"base": [self.base.real, self.base.imag],
                "segments": [s.to_json() for s in self.segments]}

    @classmethod
    def from_json(cls, obj) -> "Path":
        def num(x) -> float:  # a JSON number, not a bool, NaN or ±Infinity
            if (isinstance(x, bool) or not isinstance(x, (int, float))
                    or not abs(x) <= _MAX_MODULUS):
                raise ValueError(f"{x!r} is not a finite number within "
                                 f"±{_MAX_MODULUS:.0e}")
            return float(x)

        try:
            base = complex(num(obj["base"][0]), num(obj["base"][1]))
            segs = []
            for item in obj.get("segments", []):
                if "line" in item:
                    (a, b), (c, e) = item["line"]
                    segs.append(LineSeg(complex(num(a), num(b)),
                                        complex(num(c), num(e))))
                elif "arc" in item:
                    arc = item["arc"]
                    segs.append(ArcSeg(complex(num(arc["center"][0]),
                                               num(arc["center"][1])),
                                       num(arc["radius"]),
                                       num(arc["from"]), num(arc["to"])))
                else:
                    raise KeyError("segment kind")
        except (KeyError, TypeError, IndexError, ValueError,
                OverflowError) as exc:
            raise PathError(f"malformed path payload: {exc}") from exc
        return cls(tuple(segs), base)


def _check_distances(dists: Iterable[float], ps: PoleSet):
    """PathError at the first puncture, in the pole set's order, whose
    distance from a path is below the guard."""
    guard = ps.guard
    for dmin, lab in zip(dists, ps.labels):
        if dmin < guard:
            raise PathError(f"path passes within {dmin:.3g} of the puncture "
                            f"{lab} (guard {guard:.3g})")


def _detours(a: complex, b: complex, ps: PoleSet):
    """The planner's detour test on the chord from a to b (a != b): its
    unit direction, the detours (along, p, rho) it takes, sorted along the
    chord, and its distance to each puncture in the pole set's order.  A
    puncture gets a half circle of radius rho, 0.3 times the least pairwise
    distance and at most 0.8 times its distance to either end, when rho is
    more than two guards and the chord passes within rho of it strictly
    between its ends."""
    guard = ps.guard
    length = abs(b - a)
    u = (b - a) / length
    detours = []
    dists = []
    m = ps.min_pairwise_distance
    for p in ps.as_complex:
        along, d = _line_distance(a, b, p)
        dists.append(d)
        rho = 0.3 * m if math.isfinite(m) else 0.3 * max(1.0, abs(a - p))
        rho = min(rho, 0.8 * abs(a - p), 0.8 * abs(b - p))
        if (rho <= 2 * guard or not 1e-12 < along < length - 1e-12
                or d >= rho):
            continue
        detours.append((along, p, rho))
    detours.sort(key=lambda item: item[0])
    return u, detours, dists


def plan_path(a: complex, b: complex, ps: PoleSet) -> Path:
    """A straight path from a to b, detouring around punctures that sit too
    close to the segment (``_detours``).  Detours are half circles on the
    left of the travel direction, which is above the poles for rightward
    travel."""
    a, b = complex(a), complex(b)
    if not (math.hypot(a.real, a.imag) <= _MAX_MODULUS
            and math.hypot(b.real, b.imag) <= _MAX_MODULUS):
        raise DomainError(f"cannot plan a path from {a!r} to {b!r}: its "
                          f"ends must lie within modulus {_MAX_MODULUS:.0e}")
    if a == b:
        return Path((), a)
    u, detours, dists = _detours(a, b, ps)
    if not detours and abs(b - a) > 1e-14:
        # the segment itself, whose distances are the clearance's
        _check_distances(dists, ps)
        return Path((LineSeg(a, b),), a)
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
    """Tolerances on the Chebyshev tail of each piece."""

    rtol: float = 1e-10
    atol: float = 1e-12

    def __post_init__(self):
        for tol in (self.rtol, self.atol):
            if not (math.isfinite(tol) and tol > 0):
                raise DomainError("tolerances must be positive and finite")


# Chebyshev-Lobatto nodes per piece, and the Bernstein parameter every
# puncture must keep from a piece: 2 + sqrt(5), the ellipse of a line piece
# of length L through a puncture at distance L from its middle, the worst
# case of a piece no longer than its distance to the nearest puncture.  The
# interpolation error falls below rho**-24, about 1e-15, of the values.  The
# planner cuts each piece to the longest length this rho allows, so most
# pieces sit on it.
_NODES = 24
_RHO_MIN = 2 + math.sqrt(5)
# Pieces whose letters are evaluated in one pass, and (ta, tb) @ _HALF_SPAN,
# half a piece's share of its segment's parameter.
_CHUNK = 32
_HALF_SPAN = np.array([-0.5, 0.5])
# The pieces one run may integrate: each piece planned, each half of a split.
_MAX_PIECES = 200_000


@lru_cache(maxsize=1)
def _spectral():
    """The Chebyshev-Lobatto nodes of [-1, 1] in ascending order, the
    transposed integration matrix (node values of f to node values of its
    integral from -1), the last two rows of the values-to-coefficients map,
    transposed, and the reads of an integral straight from the node values
    of f: its endpoint and its two tail coefficients, ``[ST[:, -1], ST @
    tail]``, and the map from a piece (ta, tb) of a segment to the segment
    parameters of its nodes, ``(ta, tb) @ ends``.  Built from the
    closed-form DCT-I inverse and the Chebyshev integration recurrence;
    the maps that meet complex values are cast to complex once, exactly."""
    n = _NODES - 1
    theta = np.pi * np.arange(n, -1, -1) / n
    E = np.cos(np.outer(theta, np.arange(n + 2)))  # T_j(x_k), j <= n + 1
    C = E[:, :n + 1].T * (2.0 / n)
    C[:, [0, n]] *= 0.5
    C[[0, n]] *= 0.5
    # integral of sum a_j T_j is sum b_j T_j, b_j = (a_{j-1} - a_{j+1}) / 2j
    B = np.zeros((n + 2, n + 1))
    j = np.arange(1, n + 2)
    B[j, j - 1] = 1.0 / (2 * j)
    B[1, 0] = 1.0
    B[j[:-2], j[:-2] + 1] = -1.0 / (2 * j[:-2])
    B[0] = -((-1.0) ** j) @ B[1:]  # vanish at x = -1
    S = E @ B @ C
    S[0] = 0.0
    ST, tail = np.ascontiguousarray(S.T), np.ascontiguousarray(C[-2:].T)
    s = 0.5 * (1.0 + E[:, 1])
    reads = np.column_stack((ST[:, -1], ST @ tail))
    return (E[:, 1], *(a.astype(complex) for a in (ST, tail, reads)),
            np.array((1.0 - s, s)))


def _prefix_closure(words: Iterable[tuple]) -> list:
    """Every prefix of the words, the empty word first, sorted by length.
    Each word stops at its longest prefix already in the closure, so the
    n + 1 prefixes of one word cost a few slices each, not n."""
    closure = {(): None}
    for w in check_prefix_budget(words):
        k = len(w) - 1
        while k > 0 and w[:k] not in closure:
            k -= 1
        for j in range(k + 1, len(w) + 1):
            closure[w[:j]] = None
    return sorted(closure, key=len)


def _resolve_letters(closure: list, form_of) -> dict:
    """The distinct last letters of a prefix closure, in order, each sent
    through form_of once so that a letter it rejects raises here."""
    return {letter: form_of(letter)
            for letter in dict.fromkeys(w[-1] for w in closure[1:])}


class _WordSystem:
    """The triangular linear system y'_w = y_{parent(w)} * form_w(z) z',
    with words sorted by length so that each level is a contiguous block.

    A level is (lo, hi, plo, phi, pick): rows plo:phi hold its parents,
    and row lo + r is row pick[r] = (p - plo) m + a of their products with
    the m letters, for parent p and slot a.  pick is None on a full level,
    whose rows are those products as they stand (every ``canonical`` one)."""

    def __init__(self, words: Iterable[tuple], form_of):
        order = _prefix_closure(words)
        self.words = order
        self.index = {w: i for i, w in enumerate(order)}
        self.n = len(order)
        forms = _resolve_letters(order, form_of)
        slot = {letter: i for i, letter in enumerate(forms)}
        self.evaluators = [f.compiled() for f in forms.values()]
        parents = [0] + [self.index[w[:-1]] for w in order[1:]]
        slots = [0] + [slot[w[-1]] for w in order[1:]]
        self.parents = np.asarray(parents, dtype=np.intp)
        self.slots = np.asarray(slots, dtype=np.intp)
        bounds = [i for i in range(1, self.n)
                  if len(order[i]) != len(order[i - 1])] + [self.n]
        m = len(slot)
        self.levels = []
        for lo, hi in zip(bounds, bounds[1:]):
            # plain Python: numpy's reductions cost more on levels this small
            up = parents[lo:hi]
            plo, phi = min(up), max(up) + 1
            pick = [(p - plo) * m + a for p, a in zip(up, slots[lo:hi])]
            full = (phi - plo) * m == hi - lo and pick == list(range(hi - lo))
            self.levels.append((lo, hi, plo, phi, None if full else
                                np.asarray(pick, dtype=np.intp)))

    @classmethod
    def canonical(cls, ps: PoleSet, weight: int, form_of) -> "_WordSystem":
        """The system on every class word up to ``weight`` in the order of
        ``word_cuts``, whose tree it reads.  Without letters the system is
        the empty word alone."""
        self = cls.__new__(cls)
        self.words = label_words(ps, weight)  # checked before word_cuts builds
        self.parents, self.slots, levels = word_cuts(ps.labels, weight)[5:8]
        self.n, self.levels = len(self.words), list(levels)
        self.evaluators = [form_of(lab).compiled()
                           for lab in sorted(ps.labels)]
        return self


def _halves(ta: float, tb: float) -> list:
    """The halves of the piece (ta, tb) of a segment, the right one first."""
    mid = 0.5 * (ta + tb)
    if not ta < mid < tb:
        raise NumericError("integration piece underflow: the tolerance is "
                           "below rounding error")
    return [(mid, tb), (ta, mid)]


def _reach(q: complex) -> float:
    """The length of the longest piece [0, L] of the positive real axis
    whose Bernstein ellipse keeps q at rho >= _RHO_MIN.  There (rho + 1 /
    rho) / 2 = sqrt(5), so the rule is |q| + |q - L| >= sqrt(5) L, which
    holds exactly for L <= (sqrt(5) |q| - Re q) / 2."""
    return 0.5 * (math.sqrt(5) * abs(q) - q.real)


def _plan(seg, punctures, budget: int) -> list:
    """The pieces (ta, tb) of a segment in order, in one sweep: each starts
    where the last ended and is the longest that keeps every puncture at a
    Bernstein parameter of at least _RHO_MIN, the least _reach over the
    punctures (on an arc, in the angle, over the two images of each that
    bracket the least of that convex function of the image's position).
    rho only grows on a sub-interval, so the rule is monotone in a piece's
    length and no plan under it has fewer pieces.  Each piece is confirmed
    by rho as its ``bernstein`` computes it (a NaN rho keeps none), from a
    line's ``point(ta)`` and ``point(tb)`` or an arc's angles against the
    images, and shortened by a relative hair, doubled each time, while
    rounding leaves it under.  A segment the rule accepts whole is one
    piece at once.
    NumericError once the pieces pass the budget or one cannot advance."""
    if budget < 1:
        raise NumericError("integration piece budget exhausted")
    if isinstance(seg, ArcSeg):
        origin, span = seg.theta0, seg.theta1 - seg.theta0
        marks, turn = [seg.image(p) for p in punctures
                       if p != seg.center], 2 * math.pi
    else:
        origin, span = seg.start, seg.end - seg.start
        marks, turn = punctures, 0.0

    rho = _arc_bernstein if turn else _bernstein

    def keeps(ta, tb) -> bool:
        a, b = origin + ta * span, origin + tb * span
        return all(rho(a, b, q) >= _RHO_MIN for q in marks)

    if keeps(0.0, 1.0):  # a point interval too, which has no direction
        return [(0.0, 1.0)]
    if turn:
        # a piece longer than a turn covers the real part of an image q of
        # each puncture, where |q - a| + |q - b| <= L + 2 |Im q| caps it at
        # 2 |Im q| / (sqrt(5) - 1): an arc no budget covers is refused here
        cap = min((max(turn, 2 * abs(q.imag) / (math.sqrt(5) - 1))
                   for q in marks), default=math.inf)
        if abs(span) > budget * cap:
            raise NumericError("integration piece budget exhausted")
    size = abs(span)
    unit = span.conjugate() / size
    plan, ta = [], 0.0
    while ta < 1.0:
        if len(plan) == budget:
            raise NumericError("integration piece budget exhausted")
        a, reach = origin + ta * span, math.inf
        for q in marks:
            q = (q - a) * unit
            if turn:  # the images q + turn k: take those about |Im q| / 2
                k = math.floor((0.5 * abs(q.imag) - q.real) / turn)
                q += turn * k
                reach = min(reach, _reach(q), _reach(q + turn))
            else:
                reach = min(reach, _reach(q))
        tb = min(1.0, ta + reach / size)
        hair = 2.0 ** -40
        while not (ta < tb and keeps(ta, tb)):
            if not ta < tb:
                raise NumericError("integration piece underflow: the "
                                   "tolerance is below rounding error")
            tb = ta + (tb - ta) * (1.0 - hair)
            hair *= 2.0
        plan.append((ta, tb))
        ta = tb
    return plan


def _tails_within(T: np.ndarray, y: np.ndarray, end: np.ndarray,
                  cfg: IntegratorConfig) -> bool:
    """Whether every row's Chebyshev tail T is within atol + rtol max(|y|,
    |end|), its endpoint values before and after the piece.  The scale is
    at least atol unless an endpoint is NaN, so tails all within atol pass
    at once; otherwise the full test decides."""
    tails = np.abs(T)
    if tails.max() <= cfg.atol and not cmath.isnan(y.sum() + end.sum()):
        return True
    scale = cfg.atol + cfg.rtol * np.maximum(np.abs(y), np.abs(end))
    return bool(np.all(tails <= scale[:, None]))


def _run(system: _WordSystem, y: np.ndarray, path: Path,
         cfg: IntegratorConfig, punctures, capture_after=(), trace=False):
    """Integrate the system from y along the path, piece by piece.

    Each segment is planned in full first (``_plan``).  The letters at the
    nodes of its pieces are evaluated a chunk at a time, and the pieces are
    solved in order.  A piece whose Chebyshev tail is above the tolerance
    is halved; its halves skip the ellipse test, since rho only grows on a
    sub-interval, and evaluate their own letters.  The budget, _MAX_PIECES,
    counts each piece planned and each half of a tail split.

    Each level is one GEMM on its parents' node values, Y[plo:phi] @ M with
    M = [diag(g_a) ST]_a over the letters a, built once per piece: written
    straight into the level's rows when it is full, and otherwise into a
    scratch block whose rows the level picks.  Nothing reads the node
    values of the top level (the longest words): unless a trace wants
    them, its endpoints and tail coefficients come straight from the
    parents' node values, through the thin product Y[plo:phi] @
    (diag(g_a) [ST[:, -1], ST @ tail]), in place of a full GEMM per row.
    Two endpoint buffers swap on each accepted piece, and every view a
    piece reads or writes, of both, is set up once per run."""
    _, ST, tail, reads, ends = _spectral()
    s = ends[1]  # the nodes' parameters on [0, 1]
    n, m = system.n, len(system.evaluators)
    inner = system.levels
    top = None
    if inner and not trace:
        *inner, top = inner
    kept = top[0] if top else n  # the rows whose node values are kept
    Y = np.empty((kept, _NODES), dtype=complex)
    Y[0] = y[0]
    GB = np.empty((_CHUNK + 1, m, _NODES), dtype=complex)  # last: a half
    GT = GB.transpose(0, 2, 1)[..., None]  # piece i's g_a(x_k) at [i, k, a]
    M = np.empty((_NODES, m * _NODES), dtype=complex)
    W = np.empty((max((phi - plo for _, _, plo, phi, pick in inner
                       if pick is not None), default=0), m * _NODES),
                 dtype=complex)
    bufs = (y.copy(), np.empty(n, dtype=complex))
    T = np.empty((n, 2), dtype=complex)
    # each level's parent rows, GEMM output, own rows, pick and buffer slices
    levels = [(Y[plo:phi], W[:phi - plo] if pick is not None else
               Y[lo:hi].reshape(phi - plo, m * _NODES), Y[lo:hi], pick,
               [b[lo:hi, None] for b in bufs])
              for lo, hi, plo, phi, pick in inner]
    if top:  # the same for the top level, with its product R
        lo, hi, plo, phi, pick = top
        K = np.empty((_NODES, m, 3), dtype=complex)
        R = np.empty((phi - plo, 3 * m), dtype=complex)
        picked = (R.reshape(-1, 3) if pick is None else
                  np.empty((hi - lo, 3), dtype=complex))
        top_views = (Y[plo:phi], K.reshape(_NODES, 3 * m), R, pick, picked,
                     T[lo:hi], np.empty(hi - lo, dtype=complex),
                     [b[lo:hi] for b in bufs])
    tail_sum = tail.sum(axis=0)  # a constant's tail: zero but for rounding
    ST, reads = ST[:, None], reads[:, None]
    M_blocks, W_rows = M.reshape(_NODES, m, _NODES), W.reshape(-1, _NODES)
    nodes_end, T_kept, ends_kept = Y[:, -1], T[:kept], [b[:kept] for b in bufs]

    def letters(seg, spans, out):
        """Each letter's form times half the velocity at the nodes of the
        pieces spans[i] = (ta, tb) of seg, piece i's into out[i]."""
        z, dz = seg.nodes(spans @ ends, (spans @ _HALF_SPAN)[:, None])
        for j, ev in enumerate(system.evaluators):
            np.multiply(ev(z), dz, out=out[:, j])

    def solve(G, c: int) -> bool:
        """Endpoint values of every word on the piece with letters G from
        buffer c into the other and every kept row's node values into Y;
        True when ``_tails_within`` accepts every row's Chebyshev tail."""
        np.multiply(G, ST, out=M_blocks)
        for parents, out, block, pick, ys in levels:
            np.matmul(parents, M, out=out)
            if pick is not None:
                np.take(W_rows, pick, axis=0, out=block, mode="clip")
            block += ys[c]
        np.copyto(ends_kept[1 - c], nodes_end)
        np.matmul(Y, tail, out=T_kept)
        if top:
            parents, KF, R, pick, picked, T_top, scaled, ys = top_views
            np.multiply(G, reads, out=K)
            np.matmul(parents, KF, out=R)
            if pick is not None:
                np.take(R.reshape(-1, 3), pick, axis=0, out=picked,
                        mode="clip")
            np.add(picked[:, 0], ys[c], out=ys[1 - c])
            for j in (0, 1):  # by column, so that numpy loops down the level
                np.multiply(ys[c], tail_sum[j], out=scaled)
                np.add(picked[:, 1 + j], scaled, out=T_top[:, j])
        return _tails_within(T, bufs[c], bufs[1 - c], cfg)

    captured = {}
    rows = []
    capture_after = set(capture_after)
    pieces = 0
    c = 0  # the buffer that holds the endpoint values so far
    for si, seg in enumerate(path.segments):
        plan = _plan(seg, punctures, _MAX_PIECES - pieces)
        pieces += len(plan)
        for first in range(0, len(plan), _CHUNK):
            spans = plan[first:first + _CHUNK]
            letters(seg, np.array(spans), GB[:len(spans)])
            for span, G in zip(spans, GT):
                todo = [(*span, G)]
                while todo:
                    ta, tb, G = todo.pop()
                    if G is None:
                        letters(seg, np.array([(ta, tb)]), GB[_CHUNK:])
                        G = GT[_CHUNK]
                    if not solve(G, c):
                        pieces += 2
                        if pieces > _MAX_PIECES:
                            raise NumericError(
                                "integration piece budget exhausted")
                        todo += [(*half, None) for half in _halves(ta, tb)]
                        continue
                    c = 1 - c
                    if trace:
                        rows.extend((si + ta + (tb - ta) * s[k],
                                     Y[:, k].copy())
                                    for k in range(1, _NODES))
        if si in capture_after:
            captured[si] = bufs[c].copy()
    return bufs[c], captured, rows


def _integrate(path: Path, words: Iterable[tuple], poles: PoleSet, form_of,
               cfg: IntegratorConfig | None, capture_after=(), trace=False,
               start=None):
    """The integration body behind the word-list front doors (``j_element``
    runs the full basis itself): clearance, the joint word system with
    letters resolved by form_of, the run from start (the unit when None),
    and every vector unpacked into a dict.  A path without segments builds
    no system, no config and runs nothing: its endpoint values are the
    start over the prefix closure, after the same clearance check, with
    each distinct last letter sent through form_of once; asked for no
    word, it returns the empty word's value right after that check."""
    path.check_clearance(poles)
    if not path.segments:
        if not words:
            return {(): 1 + 0j if start is None else start[()]}, {}, []
        closure = _prefix_closure(words)
        _resolve_letters(closure, form_of)
        if start is None:
            return {w: 0j if w else 1 + 0j for w in closure}, {}, []
        return {w: start[w] for w in closure}, {}, []
    system = _WordSystem(words, form_of)
    y0 = (np.eye(1, system.n, dtype=complex)[0] if start is None else
          np.array([start[w] for w in system.words], dtype=complex))
    y, captured, rows = _run(system, y0, path, cfg or IntegratorConfig(),
                             poles.as_complex, capture_after, trace)

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
                      cfg: IntegratorConfig | None = None, capture_after=(),
                      start: dict | None = None):
    """Joint integration of residue-class label words through a section,
    from start, the values at path.base of the words' prefix closure, or by
    default from the unit (1 on the empty word, 0 elsewhere).  Only the
    letters the words use are resolved through the section, each once; on
    a path without segments the values are the start over the closure."""
    labels = section.poles.labels

    def form_of(lab):
        if lab not in labels:
            raise DomainError(f"unknown class letter {lab!r}")
        return section.forms[labels.index(lab)].f

    vals, caps, _ = _integrate(path, words, section.poles, form_of, cfg,
                               capture_after, start=start)
    return vals, caps


# The largest array: a dense complex matrix of 16 n^2 bytes (the view on n
# words: weight 7 on three punctures, 3,280 words and 172 MB, fits; weight 8
# does not), a series' node array or cut table, or a word's prefix set.
MATRIX_VIEW_MAX_BYTES = 1 << 28


def check_budget(nbytes: int, what: str) -> None:
    """Refuse with BudgetError (a DomainError), before anything is
    allocated, work whose largest array (or working set) of ``nbytes``
    would pass MATRIX_VIEW_MAX_BYTES."""
    if nbytes > MATRIX_VIEW_MAX_BYTES:
        raise BudgetError(f"{what} exceeds the "
                          f"{MATRIX_VIEW_MAX_BYTES >> 20} MiB array cap")


def check_word_length(n: int) -> None:
    """BudgetError when the prefix tuples of an n-letter word (8 bytes a
    letter of each) would pass MATRIX_VIEW_MAX_BYTES."""
    check_budget(4 * n * (n + 1), f"the prefix set of a {n}-letter word")


def check_prefix_budget(words: Iterable[tuple]) -> list:
    """The words as tuples, the longest refused unbuilt as one too long."""
    words = [tuple(w) for w in words]
    check_word_length(max(map(len, words), default=0))
    return words


def count_words(letters: int, weight: int) -> tuple[int, int]:
    """The words up to ``weight`` over ``letters`` letters and their cuts
    w = u v, counted without building them (and past weight 64, where two
    letters already pass every cap, not at all)."""
    if letters < 2:
        return 1 + letters * weight, 1 + letters * weight * (weight + 3) // 2
    sizes = [letters ** k for k in range(min(weight, 64) + 1)]
    return sum(sizes), sum((k + 1) * size for k, size in enumerate(sizes))


def check_series_budget(letters: int, weight: int) -> int:
    """The number of words up to ``weight`` over ``letters`` letters, counted
    without building them; DomainError unless the weight is a nonnegative
    integer, and BudgetError when the node array (16 bytes per node and
    word) or the cut table (24 bytes per cut) would pass the cap.  Every
    word basis and every series passes here before ``word_cuts`` builds."""
    if not isinstance(weight, Integral):
        raise DomainError(f"the weight of a series is no integer: {weight!r}")
    if weight < 0:
        raise DomainError("the weight of a series cannot be negative")
    n, cuts = count_words(letters, weight)
    check_budget(max(16 * _NODES * n, 24 * cuts),
                 f"a series on {n:.3g} words")
    return n


@dataclass(frozen=True, eq=False)
class GroupLikeSeries:
    """A path's Chen series: endpoint values of all class words up to a
    weight bound, one complex vector over the canonical word basis
    ``word_cuts(letters, weight)[0]``, sorted by length, so a lower weight
    is a prefix of the vector.  The empty word maps to 1, and the shuffle
    of two words to the product of their values (group-likeness).

    A loop's series is its monodromy operator on class words: the entry at
    (w, v) is ``values[u]`` when w = u v, and zero when v is not a suffix
    of w.  ``matrix`` is that dense view, kept only for the benchmark's
    reader: built on each read, not kept, and refused before it allocates
    above MATRIX_VIEW_MAX_BYTES.
    """

    weight: int
    letters: tuple
    vector: np.ndarray

    def __post_init__(self):
        n = check_series_budget(len(self.letters), self.weight)
        if self.vector.shape != (n,):
            raise DomainError("series vector does not match its word basis")

    @property
    def basis(self) -> tuple:
        return word_cuts(self.letters, self.weight)[0]

    @cached_property
    def values(self) -> dict:
        """A read view: word -> value."""
        return dict(zip(self.basis, self.vector.tolist()))

    @property
    def matrix(self) -> np.ndarray:
        n = len(self.vector)
        check_budget(16 * n * n, f"a dense operator on {n:.3g} words")
        _, word, prefix, suffix, *_ = word_cuts(self.letters, self.weight)
        # gathered first: a copy read off the view while it lives then fills
        # the gather's freed space below it, not the heap's top above it
        values = self.vector[prefix]
        m = np.zeros((n, n), dtype=complex)
        m[word, suffix] = values
        return m

    def __matmul__(self, other: "GroupLikeSeries") -> "GroupLikeSeries":
        """Series of the concatenated path, self's first, via the
        deconcatenation coproduct: the value of w is the sum over w = u v
        of self's u times other's v."""
        if self.letters != other.letters or self.weight != other.weight:
            raise DomainError("series over different word bases")
        return GroupLikeSeries(self.weight, self.letters, cut_sum(
            word_cuts(self.letters, self.weight), self.vector, other.vector))

    def inverse(self) -> "GroupLikeSeries":
        """Series of the reversed path, by the antipode:
        S(a)(w) = (-1)^|w| a(reverse w)."""
        *_, sign, rev = word_cuts(self.letters, self.weight)
        return GroupLikeSeries(self.weight, self.letters,
                               sign * self.vector[rev])

    def act(self, values: dict) -> dict:
        """Push a word-indexed value vector through the operator."""
        cuts = word_cuts(self.letters, self.weight)
        vec = np.array([values[w] for w in cuts[0]], dtype=complex)
        return dict(zip(cuts[0], cut_sum(cuts, self.vector, vec).tolist()))

    def unipotence_residual(self) -> float:
        """Largest entry of (M - Id)^(weight + 1); zero for a true action.
        M - Id is the operator of a, the series less the unit, and s @ t's
        is the product of theirs: the power's largest entry is the largest
        value of a's (weight + 1)-th @-power, read with no dense array and
        taken by squaring, in about 2 log2(weight + 1) cut sums."""
        cuts = word_cuts(self.letters, self.weight)
        power = a = self.vector.copy()
        a[0] -= 1  # the empty word, first in the basis
        for bit in bin(self.weight + 1)[3:]:  # the bits after the top one
            power = cut_sum(cuts, power, power)
            if bit == "1":
                power = cut_sum(cuts, power, a)
        return float(np.max(np.abs(power)))


def label_words(ps: PoleSet, weight: int):
    """All class words of weight at most ``weight``, canonically ordered;
    refused unbuilt by ``check_series_budget``."""
    check_series_budget(len(ps.labels), weight)
    return list(word_cuts(ps.labels, weight)[0])


def _bytes_bounded(build):
    """Memoize build, least recently used out first: a miss keeps the new
    table and drops the oldest others while the summed nbytes of the
    arrays kept pass MATRIX_VIEW_MAX_BYTES, so the cache holds about one
    cap's worth together, not one per table; a hit allocates nothing and
    only marks its table as the most recently used."""
    kept: OrderedDict = OrderedDict()  # arguments -> (table, its nbytes)

    @wraps(build)
    def cached(*args):
        entry = kept.get(args)
        if entry is not None:
            kept.move_to_end(args)
            return entry[0]
        table = build(*args)
        kept[args] = table, sum(a.nbytes for a in table
                                if isinstance(a, np.ndarray))
        total = sum(nbytes for _, nbytes in kept.values())
        while total > MATRIX_VIEW_MAX_BYTES and len(kept) > 1:
            total -= kept.popitem(last=False)[1][1]
        return table

    cached.cache_clear = kept.clear
    return cached


@_bytes_bounded
def word_cuts(letters: tuple, weight: int):
    """The label words up to ``weight`` in word_sort_key order, every cut
    w = u v as flat arrays of basis indices (w, u, v), word by word from
    u = () on, each word's first cut, the words as a word system's
    parents, slots and levels, and the antipode as a signed gather,
    S(a) = sign * a[rev], with sign (-1)^|w| and rev each word's reversal.
    Read as base-m label ranks c, the length-k word has prefix
    c // m^(k-j) and suffix c % m^(k-j), row r > 0 has parent (r - 1) // m
    and slot (r - 1) % m, every level is full, and a word's reversal is
    its slot followed by its parent's reversal.  Without letters the basis
    is the empty word alone."""
    m = len(letters)
    weight = weight if m else 0
    sizes = [m ** k for k in range(weight + 1)]
    start = np.cumsum([0] + sizes)  # level k is rows start[k]:start[k + 1]
    basis = tuple(w for k in range(weight + 1)
                  for w in product(sorted(letters), repeat=k))
    cuts = []
    for k in range(weight + 1):
        code, j = np.arange(sizes[k])[:, None], np.arange(k + 1)
        cuts.append(np.stack(np.broadcast_arrays(
            start[k] + code, start[j] + code // m ** (k - j),
            start[k - j] + code % m ** (k - j))).reshape(3, -1))
    cuts = np.concatenate(cuts, axis=1)
    starts = np.flatnonzero(cuts[1] == 0)
    parent, slot = np.divmod(
        np.arange(-1, start[-1] - 1, dtype=np.intp).clip(0), max(m, 1))
    sign = np.repeat((-1.0) ** np.arange(weight + 1), sizes)
    rev = np.zeros(len(basis), dtype=np.intp)
    for k in range(1, weight + 1):
        lo, hi = start[k], start[k + 1]
        rev[lo:hi] = (lo - start[k - 1] + slot[lo:hi] * sizes[k - 1]
                      + rev[parent[lo:hi]])
    for table in (cuts, starts, parent, slot, sign, rev):
        table.setflags(write=False)
    bounds = start.tolist()
    levels = tuple((lo, hi, (lo - 1) // m, (hi - 1) // m, None)
                   for lo, hi in zip(bounds[1:], bounds[2:]))
    return (basis, *cuts, starts, parent, slot, levels, sign, rev)


def cut_sum(cuts, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """For every basis word w, the sum over w = u v of a[u] b[v]: one
    segment of the cut table per word, from the starts it keeps."""
    _, _, prefix, suffix, starts, *_ = cuts
    return np.add.reduceat(a[prefix] * b[suffix], starts)


# The weight of a series when none is given.
DEFAULT_WEIGHT = 6


def retraced_tail(segments) -> int:
    """The largest k with 2k < n for which the last k of the n segments
    retrace the first k in reverse, as a based loop's stick does."""
    k = 0
    while (2 * (k + 1) < len(segments)
           and segments[-1 - k] == segments[k].reverse()):
        k += 1
    return k


def j_element(path: Path, section: Section, weight: int,
              cfg: IntegratorConfig | None = None) -> GroupLikeSeries:
    """The universal group-like element: endpoint values of every class word
    up to the weight, integrated through the section straight into the
    series vector; refused unbuilt at a negative weight or over the cap
    (``check_series_budget``).

    Through the standard section, a path that ends by retracing its first
    k segments (a based loop's stick, see ``retraced_tail``) integrates
    only its first n - k: with a the series after segment k - 1 and b the
    series of the n - k, Chen's composition gives the whole as
    b @ a.inverse().  Any other section is integrated along the whole
    path: letters with poles of order 2 or more carry words through values
    far above their endpoint values on the stick, and the antipode would
    close the loop with the stick's integration error in place of the
    retraced pieces' (5e-10 of the series' scale at weight 6 in the test
    suite's corrected section)."""
    cfg = cfg or IntegratorConfig()
    ps = section.poles
    system = _WordSystem.canonical(ps, weight,
                                   lambda lab: section.form(lab).f)
    path.check_clearance(ps)
    k = retraced_tail(path.segments) if section.is_standard else 0
    head = Path(path.segments[:len(path.segments) - k], path.base)
    y, captured, _ = _run(system, np.eye(1, system.n, dtype=complex)[0],
                          head, cfg, ps.as_complex, capture_after=(k - 1,))
    series = GroupLikeSeries(weight, ps.labels, y)
    if k:
        stick = GroupLikeSeries(weight, ps.labels, captured[k - 1])
        series = series @ stick.inverse()
    return series
