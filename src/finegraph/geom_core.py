"""Exact rational planar primitives.

Points are pairs of ``fractions.Fraction``.  All predicates are exact.
Floats appear only in the prefilter, which lives here whole.
``PreparedSegments`` holds a segment list with its float coordinates, padded
``float_box``es and float bounds, built once per list; ``lattice_shifts`` is
the one rule for the integer shifts under which one float box can reach
another; ``probe_candidates`` is the one candidate loop, a float probe moved
by each shift against a prepared list through the box test and
``surely_disjoint``.  A filter skips a pair only when its error bound proves
the exact segments disjoint, and ``surely_crossing`` reports a proper
crossing only when its bound proves one; every other pair is decided exactly.

``contacts`` is the one contact enumerator: which segments of two PL paths
meet, under which integer shifts, and how.  ``routing.SegmentSet`` runs the
candidate loop itself, and only loops that must drop a candidate pair before
its exact test call ``bbox_candidate_pairs`` directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

Rat = Fraction
RatPoint = tuple[Fraction, Fraction]


def rat(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def pt(x, y) -> RatPoint:
    return (rat(x), rat(y))


def vadd(p: RatPoint, q: RatPoint) -> RatPoint:
    return (p[0] + q[0], p[1] + q[1])


def vsub(p: RatPoint, q: RatPoint) -> RatPoint:
    return (p[0] - q[0], p[1] - q[1])


def smul(t: Fraction, p: RatPoint) -> RatPoint:
    return (t * p[0], t * p[1])


def cross(u: RatPoint, v: RatPoint) -> Fraction:
    return u[0] * v[1] - u[1] * v[0]


def mat_apply(m, p: RatPoint) -> RatPoint:
    """The 2x2 matrix m times p."""
    return (m[0][0] * p[0] + m[0][1] * p[1], m[1][0] * p[0] + m[1][1] * p[1])


def mat_mul(a, b):
    """The 2x2 matrix product a b, as nested tuples."""
    return (
        (a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]),
        (a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]),
    )


def norm2(u: RatPoint) -> Fraction:
    return u[0] * u[0] + u[1] * u[1]


def dist2(p: RatPoint, q: RatPoint) -> Fraction:
    return norm2(vsub(p, q))


def sign(x: Fraction) -> int:
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


def orient(p: RatPoint, q: RatPoint, r: RatPoint) -> int:
    """Sign of the cross product (q-p) x (r-p)."""
    return sign(cross(vsub(q, p), vsub(r, p)))


@dataclass(frozen=True)
class Segment:
    p: RatPoint
    q: RatPoint

    def __post_init__(self):
        if self.p == self.q:
            raise ValueError("degenerate segment")


@dataclass(frozen=True)
class Empty:
    pass


@dataclass(frozen=True)
class PointHit:
    point: RatPoint
    interior1: bool
    interior2: bool


@dataclass(frozen=True)
class Overlap:
    segment: Segment


IntersectionResult = Empty | PointHit | Overlap

EMPTY = Empty()


def _axis_interval(a: Fraction, b: Fraction) -> tuple[Fraction, Fraction]:
    return (a, b) if a <= b else (b, a)


def _collinear_overlap(s1: Segment, s2: Segment) -> IntersectionResult:
    # Parametrize both segments on the dominant axis of s1's direction.
    d = vsub(s1.q, s1.p)
    axis = 0 if abs(d[0]) >= abs(d[1]) else 1
    lo1, hi1 = _axis_interval(s1.p[axis], s1.q[axis])
    lo2, hi2 = _axis_interval(s2.p[axis], s2.q[axis])
    lo, hi = max(lo1, lo2), min(hi1, hi2)
    if lo > hi:
        return EMPTY

    def at(seg: Segment, coord: Fraction) -> RatPoint:
        dd = vsub(seg.q, seg.p)
        t = (coord - seg.p[axis]) / dd[axis]
        return vadd(seg.p, smul(t, dd))

    if lo == hi:
        p = at(s1, lo)
        return PointHit(p, lo1 < lo < hi1, lo2 < lo < hi2)
    return Overlap(Segment(at(s1, lo), at(s1, hi)))


def segment_intersection(s1: Segment, s2: Segment) -> IntersectionResult:
    """Exact classification of the intersection of two segments."""
    d1 = vsub(s1.q, s1.p)
    d2 = vsub(s2.q, s2.p)
    denom = cross(d1, d2)
    w = vsub(s2.p, s1.p)
    if denom == 0:
        if cross(d1, w) != 0:
            return EMPTY
        return _collinear_overlap(s1, s2)
    t = cross(w, d2) / denom
    u = cross(w, d1) / denom
    if t < 0 or t > 1 or u < 0 or u > 1:
        return EMPTY
    p = vadd(s1.p, smul(t, d1))
    return PointHit(p, 0 < t < 1, 0 < u < 1)


def shift_segment(s: Segment, v: tuple[int, int]) -> Segment:
    """s translated by the integer vector v."""
    w = (Fraction(v[0]), Fraction(v[1]))
    return Segment(vadd(s.p, w), vadd(s.q, w))


def path_segments(path: Sequence[RatPoint]) -> list[Segment]:
    """Segments between consecutive points of a PL path; repeated points
    are skipped."""
    return [
        Segment(path[i], path[i + 1])
        for i in range(len(path) - 1)
        if path[i] != path[i + 1]
    ]


def polyline_self_intersects(path: Sequence[RatPoint], closed: bool = False) -> bool:
    """True iff non-adjacent edges meet, or adjacent edges meet off their
    shared vertex."""
    edges = path_segments(path)
    if closed and path[0] != path[-1]:
        edges.append(Segment(path[-1], path[0]))
    return edges_self_intersect(edges, closed)


def edges_self_intersect(edges: Sequence[Segment], closed: bool = False) -> bool:
    """``polyline_self_intersects`` for the path whose edges, in order, are
    ``edges``."""
    n = len(edges)
    for _, i, j in bbox_candidate_pairs(edges, edges):
        if j <= i:
            continue
        adjacent = j == i + 1 or (closed and i == 0 and j == n - 1)
        res = segment_intersection(edges[i], edges[j])
        if isinstance(res, Empty):
            continue
        if isinstance(res, Overlap):
            return True
        if not adjacent:
            return True
        shared = edges[i].q if j == i + 1 else edges[i].p
        if res.point != shared:
            return True
    return False


def float_box(px: float, py: float, qx: float, qy: float):
    """Float box (x0, x1, y0, y1) of the segment from (px, py) to (qx, qy),
    padded outward by far more than the error of converting its exact
    coordinates to floats: boxes padded this way overlap whenever the exact
    segments meet."""
    x0, x1 = (px, qx) if px <= qx else (qx, px)
    y0, y1 = (py, qy) if py <= qy else (qy, py)
    pad = 1e-9 * (1.0 + max(abs(x0), abs(x1), abs(y0), abs(y1)))
    return (x0 - pad, x1 + pad, y0 - pad, y1 + pad)


def surely_disjoint(px, py, qx, qy, ax, ay, bx, by, shift) -> bool:
    """Float filter: True only when the segments (px, py)-(qx, qy) and
    (ax, ay)-(bx, by) provably miss.

    Each input is an exact coordinate converted to a float (relative error
    at most u = 2**-53), possibly plus an integer of magnitude at most
    ``shift`` added in floats.  With M the largest of ``shift`` and the
    inputs' magnitudes, every coordinate before and after its shift is at
    most 2M, so each input is off by at most 3uM, each difference of two
    inputs by at most 8uM, and each determinant below (two products of
    differences at most 2M) by less than 80uM**2 < 1e-14 * M**2.  The margin
    1e-9 * (1 + M)**2 is far above that: a segment strictly on one side of
    the other's supporting line by more than the margin cannot touch it, and
    anything closer falls through to the exact test."""
    m = 1e-9 * (1.0 + max(abs(px), abs(py), abs(qx), abs(qy), abs(ax), abs(ay), abs(bx), abs(by), shift)) ** 2
    d1 = (bx - ax) * (py - ay) - (by - ay) * (px - ax)
    d2 = (bx - ax) * (qy - ay) - (by - ay) * (qx - ax)
    if (d1 > m and d2 > m) or (d1 < -m and d2 < -m):
        return True
    d3 = (qx - px) * (ay - py) - (qy - py) * (ax - px)
    d4 = (qx - px) * (by - py) - (qy - py) * (bx - px)
    return (d3 > m and d4 > m) or (d3 < -m and d4 < -m)


def surely_crossing(px, py, qx, qy, ax, ay, bx, by, shift) -> bool:
    """Float filter: True only when the segments provably cross properly;
    inputs and margin as in ``surely_disjoint``."""
    m = 1e-9 * (1.0 + max(abs(px), abs(py), abs(qx), abs(qy), abs(ax), abs(ay), abs(bx), abs(by), shift)) ** 2
    d1 = (bx - ax) * (py - ay) - (by - ay) * (px - ax)
    d2 = (bx - ax) * (qy - ay) - (by - ay) * (qx - ax)
    if not ((d1 > m and d2 < -m) or (d1 < -m and d2 > m)):
        return False
    d3 = (qx - px) * (ay - py) - (qy - py) * (ax - px)
    d4 = (qx - px) * (by - py) - (qy - py) * (bx - px)
    return (d3 > m and d4 < -m) or (d3 < -m and d4 > m)


class PreparedSegments(tuple):
    """A tuple of segments prepared once for the float prefilter.

    ``floats`` holds each segment's float coordinates (px, py, qx, qy) and
    ``boxes`` its padded ``float_box``; ``bounds`` is the float box
    (x0, x1, y0, y1) of all endpoints, unpadded, or None when empty.  Like
    ``tuple``, it returns an argument that is already one as it is."""

    def __new__(cls, segs: Iterable[Segment]):
        if isinstance(segs, PreparedSegments):
            return segs
        self = super().__new__(cls, segs)
        self.floats = [(float(s.p[0]), float(s.p[1]), float(s.q[0]), float(s.q[1])) for s in self]
        self.boxes = [float_box(*f) for f in self.floats]
        xs = [c for f in self.floats for c in (f[0], f[2])]
        ys = [c for f in self.floats for c in (f[1], f[3])]
        self.bounds = (min(xs), max(xs), min(ys), max(ys)) if xs else None
        return self


def lattice_shifts(a, b, wrap_x: bool = True, wrap_y: bool = True) -> list[tuple[int, int]]:
    """The one lattice-shift rule: integer shifts v, by increasing x and then
    y, under which the float box b + v can reach the float box a, both
    (x0, x1, y0, y1); 0 only along an axis that does not wrap, and none when
    either box is None.  The ends are widened by 1e-6 + 1e-12 M, M the
    largest magnitude in the boxes, far above the 2**-53 M error per float
    bound, so every shift under which the exact boxes meet is listed; an
    extra shift only adds candidates that the exact test rejects."""
    if a is None or b is None:
        return []
    ax0, ax1, ay0, ay1 = a
    bx0, bx1, by0, by1 = b
    s = 1e-6 + 1e-12 * max(-ax0, ax1, -ay0, ay1, -bx0, bx1, -by0, by1)
    vx = range(math.ceil(ax0 - bx1 - s), math.floor(ax1 - bx0 + s) + 1) if wrap_x else (0,)
    vy = range(math.ceil(ay0 - by1 - s), math.floor(ay1 - by0 + s) + 1) if wrap_y else (0,)
    return [(i, j) for i in vx for j in vy]


def probe_candidates(
    prep: PreparedSegments, box, f, shifts: Iterable[tuple[int, int]]
) -> Iterator[tuple[tuple[int, int], int]]:
    """The one float candidate loop: (v, k) for each shift v, in order, and
    each k, in order, such that ``prep[k]`` and the probe moved by -v have
    overlapping padded boxes and ``surely_disjoint`` does not prove them
    apart.  The probe has the float coordinates f and the padded box box.
    Conservative: (v, k) is yielded whenever the exact probe moved by -v
    meets ``prep[k]``."""
    x0, x1, y0, y1 = box
    px, py, qx, qy = f
    floats, boxes = prep.floats, prep.boxes
    for v in shifts:
        i, j = v
        a0, a1, b0, b1 = x0 - i, x1 - i, y0 - j, y1 - j
        for k, (sx0, sx1, sy0, sy1) in enumerate(boxes):
            if sx0 > a1 or a0 > sx1 or sy0 > b1 or b0 > sy1:
                continue
            if not surely_disjoint(px - i, py - j, qx - i, qy - j, *floats[k], max(abs(i), abs(j))):
                yield v, k


def bbox_candidate_pairs(
    segs1: Sequence[Segment], segs2: Sequence[Segment],
    shifts: Iterable[tuple[int, int]] = ((0, 0),),
) -> Iterator[tuple[tuple[int, int], int, int]]:
    """(v, i, j) for each shift v and each pair that ``probe_candidates``
    leaves for segs1[i] against segs2[j] + v, in the order of shifts, then
    i, then j.  Either list may be a ``PreparedSegments``.

    Conservative: no pair that meets exactly is ever skipped, so callers
    confirm candidates exactly and build shifted segments only for them.
    """
    p1 = PreparedSegments(segs1)
    p2 = p1 if segs2 is segs1 else PreparedSegments(segs2)
    for v in shifts:
        w = (v,)
        for i, box in enumerate(p1.boxes):
            for _, j in probe_candidates(p2, box, p1.floats[i], w):
                yield v, i, j


def contacts(
    segs1: Sequence[Segment], segs2: Sequence[Segment],
    shifts: Iterable[tuple[int, int]] = ((0, 0),),
) -> Iterator[tuple[tuple[int, int], int, int, IntersectionResult]]:
    """(v, i, j, res) for each res = segment_intersection(segs1[i],
    segs2[j] + v) that is not Empty, in ``bbox_candidate_pairs`` order."""
    for v, i, j in bbox_candidate_pairs(segs1, segs2, shifts):
        res = segment_intersection(segs1[i], shift_segment(segs2[j], v))
        if not isinstance(res, Empty):
            yield v, i, j, res
