"""Curve-pair intersection reports, push-aside, and genericity checks.

Transversality is topological: at an isolated common point the four local
branches must alternate between the two curves in cyclic order.  Since PL
branches leaving a common point in the same direction would overlap along a
segment (reported separately), the branch order is decided by exact direction
comparisons alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Optional, Sequence

from .geom_core import (
    Empty,
    Overlap,
    RatPoint,
    Segment,
    cross,
    dist2,
    lattice_shifts,
    orient,
    segment_intersection,
    smul,
    vadd,
    vsub,
)
from .surfaces import (
    TorusCurve,
    _CurveTrace,
    sort_directions,
    torus_curve_simple,
    torus_pair_hits,
    torus_rep,
)

TRANSVERSE = "transverse"
TOUCHING = "touching"


class SideChoice(Enum):
    LEFT = "left"
    RIGHT = "right"


class ClearanceFailure(RuntimeError):
    pass


@dataclass
class IntersectionReport:
    points: list[tuple[RatPoint, str]] = field(default_factory=list)
    overlaps: list[list[RatPoint]] = field(default_factory=list)

    def transverse_points(self) -> list[RatPoint]:
        return [p for p, k in self.points if k == TRANSVERSE]

    def to_json(self):
        return {
            "points": [
                {"at": [str(p[0]), str(p[1])], "kind": k}
                for p, k in self.points
            ],
            "overlaps": [
                [[str(x), str(y)] for x, y in arc] for arc in self.overlaps
            ],
        }


def _branch_dirs(trace: _CurveTrace, param: Fraction) -> list[RatPoint]:
    return [
        trace.direction_at(param, True),
        trace.direction_at(param, False),
    ]


def intersect_curves(a: TorusCurve, b: TorusCurve) -> IntersectionReport:
    """Exact intersection report for two torus curves."""
    ta, tb = _CurveTrace(a, 0), _CurveTrace(b, 1)
    report = IntersectionReport()
    seen_params: dict[RatPoint, tuple[Fraction, Fraction]] = {}
    for v, si, sj, res in torus_pair_hits(a, b):
        if isinstance(res, Overlap):
            seg = res.segment
            arc = [torus_rep(seg.p), torus_rep(seg.q)]
            if arc not in report.overlaps and arc[::-1] not in report.overlaps:
                report.overlaps.append(arc)
            continue
        p = res.point
        tp = torus_rep(p)
        w = (Fraction(v[0]), Fraction(v[1]))
        pa = ta.param_of(si, p)
        pb = tb.param_of(sj, vsub(p, w))
        if pa == ta.n:
            pa = Fraction(0)
        if pb == tb.n:
            pb = Fraction(0)
        seen_params[tp] = (pa, pb)
    for tp, (pa, pb) in sorted(seen_params.items()):
        fan = []
        for d in _branch_dirs(ta, pa):
            fan.append((d, "a"))
        for d in _branch_dirs(tb, pb):
            fan.append((d, "b"))
        fan = sort_directions(fan)
        labels = [lab for _, lab in fan]
        alternating = all(
            labels[i] != labels[(i + 1) % len(labels)]
            for i in range(len(labels))
        )
        kind = TRANSVERSE if len(labels) == 4 and alternating else TOUCHING
        report.points.append((tp, kind))
    return report


# --------------------------------------------------------------------- push


def _offset_open(
    arc: Sequence[RatPoint], t: Fraction, side: int, pin_start: bool, pin_end: bool
):
    """Parallel copy of an open polyline at miter offset t on the given
    side (+1 left, -1 right); pinned endpoints keep their original
    position."""
    pts = [p for i, p in enumerate(arc) if i == 0 or p != arc[i - 1]]
    n = len(pts)
    if n < 2:
        return list(pts)

    def nrm(i):
        d = vsub(pts[i + 1], pts[i])
        return (-d[1] * side, d[0] * side)

    out = []
    for i in range(n):
        if (i == 0 and pin_start) or (i == n - 1 and pin_end):
            out.append(pts[i])
            continue
        if i == 0:
            out.append(vadd(pts[i], smul(t, nrm(0))))
            continue
        if i == n - 1:
            out.append(vadd(pts[i], smul(t, nrm(n - 2))))
            continue
        dj = vsub(pts[i], pts[i - 1])
        di = vsub(pts[i + 1], pts[i])
        denom = cross(dj, di)
        nj = (-dj[1] * side, dj[0] * side)
        ni = (-di[1] * side, di[0] * side)
        if denom == 0:
            out.append(vadd(pts[i], smul(t, ni)))
            continue
        # intersection of the two offset lines (miter join)
        pj = vadd(vsub(pts[i], dj), smul(t, nj))
        pi = vadd(pts[i], smul(t, ni))
        w = vsub(pi, pj)
        s = cross(w, di) / denom
        out.append(vadd(pj, smul(s, dj)))
    return out


def _point_seg_dist2(p: RatPoint, s: Segment) -> Fraction:
    d = vsub(s.q, s.p)
    w = vsub(p, s.p)
    denom = d[0] * d[0] + d[1] * d[1]
    t = (w[0] * d[0] + w[1] * d[1]) / denom
    t = max(Fraction(0), min(Fraction(1), t))
    proj = vadd(s.p, smul(t, d))
    return dist2(p, proj)


def _seg_seg_dist2(s1: Segment, s2: Segment) -> Fraction:
    if not isinstance(segment_intersection(s1, s2), Empty):
        return Fraction(0)
    return min(
        _point_seg_dist2(s1.p, s2),
        _point_seg_dist2(s1.q, s2),
        _point_seg_dist2(s2.p, s1),
        _point_seg_dist2(s2.q, s1),
    )


def min_dist2_curves(a: TorusCurve, b: TorusCurve) -> Fraction:
    """Minimum squared distance between the projections, 0 if they meet."""
    best: Optional[Fraction] = None
    segs_a = a.segments()
    # every point lies within 1 of some lift of b, so a translate whose box
    # is more than 1 away from a's never holds the minimum
    x0, x1, y0, y1 = a._prepared.bounds
    for v in lattice_shifts((x0 - 1, x1 + 1, y0 - 1, y1 + 1), b._prepared.bounds):
        w = (Fraction(v[0]), Fraction(v[1]))
        segs_b = [Segment(vadd(s.p, w), vadd(s.q, w)) for s in b.segments()]
        for s1 in segs_a:
            for s2 in segs_b:
                d = _seg_seg_dist2(s1, s2)
                if best is None or d < best:
                    best = d
                if best == 0:
                    return best
    return best if best is not None else Fraction(1)


def _merge_collinear(path: list[RatPoint], homology) -> list[RatPoint]:
    """Drop interior vertices where consecutive segments are collinear.

    Works on an open period path (last point = first + homology)."""
    h = (Fraction(homology[0]), Fraction(homology[1]))
    pts = path[:-1]
    out = []
    n = len(pts)
    for i in range(n):
        prev = pts[(i - 1) % n] if i > 0 else vsub(pts[-1], h)
        nxt = pts[i + 1] if i + 1 < n else vadd(pts[0], h)
        if orient(prev, pts[i], nxt) != 0:
            out.append(pts[i])
    if len(out) < 2 and h != (0, 0):
        # a straight geodesic: keep two points of the period
        p0 = out[0] if out else pts[0]
        out = [p0, vadd(p0, smul(Fraction(1, 2), h))]
    return out + [vadd(out[0], h)]


def push_aside(
    a: TorusCurve,
    side: SideChoice = SideChoice.LEFT,
    obstacles: Sequence[TorusCurve] = (),
) -> TorusCurve:
    """A parallel disjoint copy of a on the requested side.

    The copy stays within half the clearance to any obstacle disjoint from a
    and crosses each transversal obstacle exactly once near each original
    crossing; all of this is verified exactly and the offset is shrunk until
    it holds.
    """
    h = a.homology
    path = _merge_collinear(a.period_path(), h)
    pts = path[:-1]
    # the period path preceded by the previous copy of its last vertex, so
    # that every vertex of the period gets a miter join
    ext = [vsub(pts[-1], h)] + path
    sgn = 1 if side is SideChoice.LEFT else -1

    crossings = {}
    clear2: Optional[Fraction] = None
    for ob in obstacles:
        rep = intersect_curves(a, ob)
        if rep.points or rep.overlaps:
            crossings[id(ob)] = rep
        else:
            d2 = min_dist2_curves(a, ob)
            clear2 = d2 if clear2 is None else min(clear2, d2)

    t = Fraction(1, 4)
    for _ in range(200):
        ok = True
        new_pts = _offset_open(ext, t, sgn, False, False)[1:-1]
        try:
            cand = TorusCurve(
                new_pts
                + [vadd(new_pts[0], (Fraction(h[0]), Fraction(h[1])))]
            )
        except ValueError:
            t /= 2
            continue
        # exact verification; shrink on any failure
        if clear2 is not None and clear2 > 0:
            hd2 = max(dist2(p, q) for p, q in zip(new_pts, pts))
            if not hd2 * 4 < clear2:
                ok = False
        if ok and not torus_curve_simple(cand):
            ok = False
        if ok:
            rep = intersect_curves(a, cand)
            if rep.points or rep.overlaps:
                ok = False
        if ok:
            for ob in obstacles:
                orig = crossings.get(id(ob))
                if orig is None:
                    if min_dist2_curves(cand, ob) == 0:
                        ok = False
                        break
                    continue
                newrep = intersect_curves(cand, ob)
                if newrep.overlaps or len(newrep.points) != len(
                    orig.points
                ):
                    ok = False
                    break
                if any(k != TRANSVERSE for _, k in newrep.points) or any(
                    k != TRANSVERSE for _, k in orig.points
                ):
                    ok = False
                    break
        if ok:
            return cand
        t /= 2
    raise ClearanceFailure("offset collapsed without a valid parallel copy")


# ------------------------------------------------------------- genericity


def _pair_generic(a: TorusCurve, b: TorusCurve) -> bool:
    rep = intersect_curves(a, b)
    if rep.overlaps:
        return False
    return all(k == TRANSVERSE for _, k in rep.points)


def _no_triple_points(curves: Sequence[TorusCurve]) -> bool:
    seen: dict[RatPoint, int] = {}
    for i in range(len(curves)):
        for j in range(i + 1, len(curves)):
            for p, _ in intersect_curves(curves[i], curves[j]).points:
                key = p
                seen[key] = seen.get(key, 0) + 1
                if seen[key] > 1:
                    return False
    return True


def is_generic(curves: Sequence[TorusCurve]) -> bool:
    if any(not torus_curve_simple(c) for c in curves):
        return False
    for i in range(len(curves)):
        for j in range(i + 1, len(curves)):
            if not _pair_generic(curves[i], curves[j]):
                return False
    return _no_triple_points(curves)
