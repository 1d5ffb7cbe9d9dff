"""Cutting the torus along a curve, unicorn paths between arcs, and chains
of bouquet moves between edges through a common point.

Cutting along a simple nonseparating curve a yields a compact annulus.  It
is realized concretely: a change of basis in SL(2,Z) sends the class of a
to (1,0), after which the lifts of a are disjoint curves stacked vertically
and the annulus is the strip between two consecutive lifts, taken modulo
the horizontal unit translation.  Arcs live in the strip as lifted PL
paths; all predicates work modulo that translation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .geom_core import (
    Empty,
    Overlap,
    PreparedSegments,
    RatPoint,
    Segment,
    bbox_candidate_pairs,
    contacts,
    cross,
    edges_self_intersect,
    lattice_shifts,
    mat_apply,
    path_segments,
    segment_intersection,
    shift_segment,
    smul,
    vadd,
    vsub,
)
from .curves_ops import _offset_open, intersect_curves
from .fine_graph import (
    BOUQUET,
    EdgeT,
    NotAClique,
    NotAVertex,
    TransverseEdge,
    WitnessSearchFailed,
    check_vertex,
    classify_clique3,
    close_through,
    is_edge,
)
from .routing import ON_OBSTACLE, SegmentSet
from .surfaces import (
    TorusCurve,
    _CurveTrace,
    affine_curve,
    curve_arrangement,
    lift_on_path,
    sort_directions,
    torus_pair_hits,
    torus_rep,
)


class PointNotOnCurve(ValueError):
    pass


class NonGenericInput(ValueError):
    pass


class PointsDiffer(ValueError):
    pass


def _ext_gcd(p: int, q: int):
    if q == 0:
        return (1 if p > 0 else -1), 0
    a, b = _ext_gcd(q, p % q)
    return b, a - (p // q) * b


def _normalizer(h: tuple[int, int]):
    """N in SL(2,Z) with N h = (1, 0)."""
    p, q = h
    a, b = _ext_gcd(p, q)
    # rows (a, b) and (-q, p): det = ap + bq = gcd = 1
    return ((a, b), (-q, p))


def _inv2(m):
    (a, b), (c, d) = m
    det = a * d - b * c
    return ((d // det, -b // det), (-c // det, a // det))


Arc = list  # lifted PL path in strip coordinates


def _drop_collinear(arc: Sequence[RatPoint]) -> list[RatPoint]:
    """Remove interior vertices where the arc continues straight ahead."""
    out = [arc[0]]
    for i in range(1, len(arc) - 1):
        p = arc[i]
        if p == out[-1]:
            continue
        a, b = vsub(p, out[-1]), vsub(arc[i + 1], p)
        if cross(a, b) == 0 and a[0] * b[0] + a[1] * b[1] > 0:
            continue
        out.append(p)
    out.append(arc[-1])
    return out


def _arc_set(arcs) -> SegmentSet:
    segs = []
    for a in arcs:
        segs.extend(path_segments(a))
    return SegmentSet(segs, wrap_x=True, wrap_y=False)


@dataclass
class CutSurface:
    """The compact annulus obtained by cutting the torus along ``base``.

    ``strip_base`` is the normalized lift of the cut curve; the annulus is
    the region between it and its (0,1)-translate modulo (1,0).  ``marked``
    holds the two boundary copies of the chosen point x."""

    base: TorusCurve
    x: RatPoint
    nmat: tuple
    strip_base: list[RatPoint]
    marked: tuple[RatPoint, RatPoint]

    @cached_property
    def _lifts(self) -> SegmentSet:
        """Every lift of the cut: strip_base moved by all of Z^2."""
        return SegmentSet(path_segments(self.strip_base), wrap_x=True, wrap_y=True)

    def boundary_set(self) -> SegmentSet:
        top = [vadd(p, (Fraction(0), Fraction(1))) for p in self.strip_base]
        return _arc_set([self.strip_base, top])

    # ---------------------------------------------------------- the chart

    def chart(self, p: RatPoint) -> RatPoint:
        """Strip coordinates of a torus point off the cut curve.

        The image q = N p runs up to the first lift of the cut, strip_base +
        (i, j); the lifts run towards +x with the strip above on their left,
        so q lies between lifts j - 1 and j when it leaves that lift's right
        side, and between lifts j and j + 1 otherwise.  q moves down by that
        level, then right into the window starting at the marked point.  A
        point on the cut raises PointNotOnCurve."""
        q = mat_apply(self.nmat, p)
        ys = [y for _, y in self.strip_base]
        hit = self._lifts.first_hit(q, max(ys) - min(ys) + 1, 1)
        if hit is ON_OBSTACLE:
            raise PointNotOnCurve("point lies on the cut curve")
        (_, j), k = hit
        s = self._lifts.segs[k]
        lvl = j - 1 if s.q[0] > s.p[0] else j
        q = (q[0], q[1] - lvl)
        q = (q[0] - math.floor(q[0] - self.marked[0][0]), q[1])
        return q

    def chart_inv(self, q: RatPoint) -> RatPoint:
        return torus_rep(mat_apply(_inv2(self.nmat), q))

    # ------------------------------------------------- curves become arcs

    def curve_to_arc(self, b: TorusCurve) -> list[RatPoint]:
        """The induced boundary-to-boundary arc of a curve crossing the cut
        exactly once, at the marked point."""
        rep = intersect_curves(self.base, b)
        pts = rep.transverse_points()
        if rep.overlaps or len(rep.points) != 1 or len(pts) != 1:
            raise NonGenericInput("curve must cross the cut exactly once")
        if torus_rep(pts[0]) != torus_rep(self.x):
            raise PointsDiffer("curve crosses the cut away from x")
        tr = _CurveTrace(b, 0)
        t_x = None
        for v, si, sj, res in torus_pair_hits(b, self.base):
            if hasattr(res, "point"):
                t_x = tr.param_of(si, res.point) % tr.n
        period = tr.sub_path(t_x, t_x)
        arc = [mat_apply(self.nmat, p) for p in period]
        if arc[-1][1] - arc[0][1] == -1:
            arc = list(reversed(arc))
        if arc[-1][1] - arc[0][1] != 1:
            raise NonGenericInput("curve does not cross the cut once")
        shift = vsub(self.marked[0], arc[0])
        if shift[0].denominator != 1 or shift[1].denominator != 1:
            raise WitnessSearchFailed("arc endpoint misaligned with x")
        return _drop_collinear([vadd(p, shift) for p in arc])

    def arc_to_curve(self, arc: Sequence[RatPoint]) -> TorusCurve:
        return affine_curve(arc, _inv2(self.nmat))


def cut_along(a: TorusCurve, x: RatPoint) -> CutSurface:
    check_vertex(a)
    n = _normalizer(a.homology)
    base = affine_curve(a.lift, n).period_path()
    found = lift_on_path(mat_apply(n, torus_rep(x)), base)
    if found is None:
        raise PointNotOnCurve("x must lie on the cut curve")
    xlift = found[1]
    top = vadd(xlift, (Fraction(0), Fraction(1)))
    return CutSurface(
        base=a, x=torus_rep(x), nmat=n, strip_base=base, marked=(xlift, top)
    )


# ------------------------------------------------------------ arc crossings


def _arc_crossings(u: Sequence[RatPoint], v: Sequence[RatPoint]):
    """Interior transverse crossings of two strip arcs sharing endpoints.

    Returned as (param along u, point in u's frame), sorted by param.
    Raises NonGenericInput on overlaps or non-transverse interior contact."""
    su = PreparedSegments(path_segments(u))
    sv = PreparedSegments(path_segments(v))
    ends_u = {u[0], u[-1]}
    ends_v = {v[0], v[-1]}
    out = []
    seen = set()
    for w, ui, _, res in contacts(su, sv, lattice_shifts(su.bounds, sv.bounds, wrap_y=False)):
        s1 = su[ui]
        if isinstance(res, Overlap):
            raise NonGenericInput("arcs overlap")
        p = res.point
        u_end = p in ends_u
        v_end = (p[0] - w[0], p[1]) in ends_v
        if u_end and v_end:
            continue
        if u_end != v_end:
            raise NonGenericInput("arc through the other's endpoint")
        if not (res.interior1 and res.interior2):
            raise NonGenericInput("crossing at an arc vertex")
        key = (ui, p)
        if key in seen:
            continue
        seen.add(key)
        d = vsub(s1.q, s1.p)
        axis = 0 if d[0] != 0 else 1
        t = (p[axis] - s1.p[axis]) / d[axis]
        out.append((ui + t, p))
    out.sort()
    return out


def _sub_arc(arc: Sequence[RatPoint], t0: Fraction, t1: Fraction):
    """Piece of an arc between fractional segment params (t measured over
    the deduplicated segment list)."""
    segs = path_segments(arc)

    def at(t):
        i = min(int(t), len(segs) - 1)
        s = segs[i]
        return vadd(s.p, smul(t - i, vsub(s.q, s.p)))

    out = [at(t0)]
    k = int(t0) + 1
    while k < t1:
        out.append(segs[k - 1].q)
        k += 1
    endp = at(t1)
    if out[-1] != endp:
        out.append(endp)
    return out


def _arc_simple(arc: Sequence[RatPoint]) -> bool:
    """Is the arc embedded in the annulus: simple in the strip, and clear of
    its own horizontal translates?"""
    segs = PreparedSegments(path_segments(arc))
    if edges_self_intersect(segs):
        return False
    shifts = [v for v in lattice_shifts(segs.bounds, segs.bounds, wrap_y=False) if v != (0, 0)]
    return next(contacts(segs, segs, shifts), None) is None


def _set_hits_arc(sset: SegmentSet, arc: Sequence[RatPoint], allow=()) -> bool:
    for s in path_segments(arc):
        if sset.hits(s, allow=allow):
            return True
    return False


def _simplify_arc(arc, avoid: Sequence[SegmentSet], allow=()):
    """Greedy vertex removal keeping the arc simple and clear of the given
    obstacle sets; endpoints are never touched."""
    out = [p for i, p in enumerate(arc) if i == 0 or p != arc[i - 1]]
    changed = True
    while changed and len(out) > 2:
        changed = False
        i = 1
        while i + 1 < len(out):
            if out[i - 1] == out[i + 1]:
                i += 1
                continue
            seg = Segment(out[i - 1], out[i + 1])
            if any(s.hits(seg, allow=allow) for s in avoid):
                i += 1
                continue
            cand = out[:i] + out[i + 1 :]
            if _removal_ok(cand, seg):
                out = cand
                changed = True
            else:
                i += 1
    return out


def _removal_ok(cand, new: Segment) -> bool:
    """After a vertex removal only the replacement segment is new; it alone
    is checked against the rest of the arc and its horizontal translates."""
    segs, probe = PreparedSegments(path_segments(cand)), PreparedSegments([new])
    ni = next(
        (k for k, s in enumerate(segs) if s.p == new.p and s.q == new.q), None
    )
    shifts = lattice_shifts(segs.bounds, probe.bounds, wrap_y=False)
    shifts = [(0, 0)] + [v for v in shifts if v != (0, 0)]
    for v, k, _ in bbox_candidate_pairs(segs, probe, shifts):
        if v == (0, 0) and k == ni:
            continue
        res = segment_intersection(shift_segment(new, v), segs[k])
        if isinstance(res, Empty):
            continue
        if (
            v == (0, 0)
            and ni is not None
            and abs(k - ni) == 1
            and not isinstance(res, Overlap)
            and res.point in (new.p, new.q)
        ):
            continue
        return False
    return True


# -------------------------------------------------------------- unicorns


def unicorn_path(
    S: CutSurface, g1: Sequence[RatPoint], g2: Sequence[RatPoint]
) -> list[list[RatPoint]]:
    """A path g1 = c0, ..., cm = g2 of arcs with consecutive arcs disjoint
    except at the common endpoints.

    Each step follows g1 to its first interior crossing with g2, continues
    along g2, and pushes the resulting unicorn arc off both curves; its
    crossing count with g1 strictly decreases, so the recursion ends."""
    crossings = _arc_crossings(g1, g2)
    if not crossings:
        return [list(g1), list(g2)]
    n = len(crossings)
    t_w, w = crossings[0]
    t_on_g2 = None
    for t2, p2 in _arc_crossings(g2, g1):
        if torus_rep(p2) == torus_rep(w):
            t_on_g2 = t2
            break
    if t_on_g2 is None:
        raise NonGenericInput("crossing not found on the second arc")
    A = _sub_arc(g1, Fraction(0), t_w)
    segs2 = path_segments(g2)
    B = _sub_arc(g2, t_on_g2, Fraction(len(segs2)))
    # realign B's lift to end of A
    B = _chain_lift(A[-1], B)
    boundary = S.boundary_set()
    t = Fraction(1, 32)
    for _ in range(40):
        cand = None
        for side_a in (1, -1):
            for side_b in (1, -1):
                c = _join_pushed(A, B, t, side_a, side_b)
                if c is None:
                    continue
                if not _arc_simple(c):
                    continue
                if _set_hits_arc(boundary, c, allow=(c[0], c[-1])):
                    continue
                try:
                    if _arc_crossings(c, g2):
                        continue
                    c1 = _arc_crossings(c, g1)
                except NonGenericInput:
                    continue
                if len(c1) >= n:
                    continue
                cand = c
                break
            if cand is not None:
                break
        if cand is not None:
            # straighten the pushed arc; keep it only if still valid
            slim = _simplify_arc(cand, [_arc_set([g2]), boundary], allow=(cand[0], cand[-1]))
            try:
                if not _arc_crossings(slim, g2) and len(_arc_crossings(slim, g1)) < n:
                    cand = slim
            except NonGenericInput:
                pass
            rest = unicorn_path(S, g1, _drop_collinear(cand))
            return rest + [list(g2)]
        t /= 2
    raise WitnessSearchFailed("unicorn push-off failed")


def _chain_lift(anchor: RatPoint, arc: Sequence[RatPoint]):
    d = vsub(anchor, arc[0])
    if d[0].denominator != 1 or d[1].denominator != 1:
        raise NonGenericInput("arc pieces do not meet at a common point")
    return [vadd(p, d) for p in arc]


def _join_pushed(A, B, t, side_a, side_b):
    """Offset copies of A (pinned at its start) and B (pinned at its end),
    joined by a corner cut near the shared point w."""
    Ao = _offset_open(A, t, side_a, pin_start=True, pin_end=False)
    Bo = _offset_open(B, t, side_b, pin_start=False, pin_end=True)
    out = [p for p in Ao[:-1]]
    # trim both offsets short of w so the corner chord stays inside the
    # convex wedge between the arrival and departure rays
    if len(Ao) >= 2:
        out.append(vadd(Ao[-2], smul(Fraction(3, 4), vsub(Ao[-1], Ao[-2]))))
    if len(Bo) >= 2:
        out.append(vadd(Bo[0], smul(Fraction(1, 4), vsub(Bo[1], Bo[0]))))
    out.extend(Bo[1:])
    cleaned = [out[0]]
    for p in out[1:]:
        if p != cleaned[-1]:
            cleaned.append(p)
    if len(cleaned) < 2:
        return None
    return cleaned


# --------------------------------------------------------- bouquet chains


@dataclass
class ChainCertificate:
    """Certificate that two edges through a common point are connected by
    bouquet moves.

    edges[0] and edges[-1] are the given edges; move i is a curve triple
    whose classification must be a bouquet and whose pairwise point is the
    shared point of edges i and i+1."""

    edges: list
    moves: list

    def to_json(self):
        def curve(c):
            return [[str(p[0]), str(p[1])] for p in c.period_path()]

        return {
            "point": [str(self.edges[0].point[0]), str(self.edges[0].point[1])],
            "edges": [
                {"a": curve(e.a), "b": curve(e.b)} for e in self.edges
            ],
            "moves": [[curve(u) for u in m] for m in self.moves],
        }

    @staticmethod
    def from_json(data) -> "ChainCertificate":
        def curve(path):
            return TorusCurve([(Fraction(x), Fraction(y)) for x, y in path])

        if len(data["point"]) != 2:
            raise ValueError("point must have two entries")
        if any(len(m) != 3 for m in data["moves"]):
            raise ValueError("every move must have three curves")
        point = (Fraction(data["point"][0]), Fraction(data["point"][1]))
        edges = [EdgeT(curve(e["a"]), curve(e["b"]), point) for e in data["edges"]]
        moves = [tuple(curve(u) for u in m) for m in data["moves"]]
        return ChainCertificate(edges=edges, moves=moves)


def _curves_coincide(b: TorusCurve, c: TorusCurve) -> bool:
    """Do b and c trace the same set on the torus?  Equal lifts do at once;
    otherwise every vertex and segment midpoint of each must lie on the
    other."""
    if b == c:
        return True

    def covered(u, v):
        path = v.period_path()
        for s in u.segments():
            mid = smul(Fraction(1, 2), vadd(s.p, s.q))
            for p in (s.p, s.q, mid):
                if lift_on_path(torus_rep(p), path) is None:
                    return False
        return True

    return covered(b, c) and covered(c, b)


def _germ_dirs(curve: TorusCurve, x: RatPoint):
    tr = _CurveTrace(curve, 0)
    found = lift_on_path(x, tr.path)
    if found is None:
        raise PointNotOnCurve("germ point not on curve")
    t = tr.param_of(*found) % tr.n
    return tr.direction_at(t, True), tr.direction_at(t, False)


def _alternates(d1, d2, w1, w2) -> bool:
    fan = sort_directions([(d1, "d"), (d2, "d"), (w1, "w"), (w2, "w")])
    if len(fan) != 4:
        return False
    labels = [lab for _, lab in fan]
    return all(labels[i] != labels[(i + 1) % 4] for i in range(4))


def _offset_walk(pts: Sequence[RatPoint], eps: Fraction) -> list[RatPoint]:
    """Right offset of an open polyline at distance-scale eps.

    The first and last points are kept in place and joined to the offsets of
    the first and last segment midpoints, so the path leaves its endpoints
    hugging the original walls.  Left turns get both corner offsets, right
    turns a single miter point."""
    ps = [p for i, p in enumerate(pts) if i == 0 or p != pts[i - 1]]
    segs = [(ps[i], ps[i + 1]) for i in range(len(ps) - 1)]

    def rn(d):
        s = max(abs(d[0]), abs(d[1]))
        return (d[1] / s, -d[0] / s)

    dirs = [vsub(q, p) for p, q in segs]
    mid0 = smul(Fraction(1, 2), vadd(*segs[0]))
    midl = smul(Fraction(1, 2), vadd(*segs[-1]))
    out = [ps[0], vadd(mid0, smul(eps, rn(dirs[0])))]
    for i in range(1, len(ps) - 1):
        v = ps[i]
        din, dout = dirs[i - 1], dirs[i]
        turn = cross(din, dout)
        if turn == 0:
            out.append(vadd(v, smul(eps, rn(dout))))
        elif turn > 0:
            out.append(vadd(v, smul(eps, rn(din))))
            out.append(vadd(v, smul(eps, rn(dout))))
        else:
            a = vadd(v, smul(eps, rn(din)))
            b = vadd(v, smul(eps, rn(dout)))
            t = cross(vsub(b, a), dout) / turn
            out.append(vadd(a, smul(t, din)))
    out.extend([vadd(midl, smul(eps, rn(dirs[-1]))), ps[-1]])
    return _drop_collinear(out)


def _boundary_hug_delta(curves: Sequence[TorusCurve], x: RatPoint):
    """A vertex through x built by hugging a complementary face boundary.

    Grid routing cannot thread channels narrower than its resolution, so the
    body of the curve is taken as an exact inward offset of the boundary
    walk of the face whose corners at x hold the two germ directions."""
    x = torus_rep(x)
    arr = curve_arrangement(curves)

    def next_real(d):
        # scaffold edges are passable, so drop their darts from the fans
        e = arr.next_ccw[d ^ 1]
        while arr.edges[e // 2]["label"] >= arr.n_input:
            e = arr.next_ccw[e]
        return e

    fan = []
    for e, ed in enumerate(arr.edges):
        if ed["label"] >= arr.n_input:
            continue
        t = ed["trace"]
        if ed["v0"] == x:
            fan.append((t.direction_at(ed["p0"], True), 2 * e))
        if ed["v1"] == x:
            fan.append((t.direction_at(ed["p1"], False), 2 * e + 1))
    fan = sort_directions(fan)
    m = len(fan)
    pairs = {}
    for d, dart in fan:
        pairs.setdefault(arr.edges[dart // 2]["label"], []).append(d)
    gaps = [vadd(fan[k][0], fan[(k + 1) % m][0]) for k in range(m)]

    def corner_walk(s1, s2):
        # face boundary darts from the corner of sector s1 around to the
        # first corner of sector s2, both at x
        start = fan[(s1 + 1) % m][1]
        stop = fan[(s2 + 1) % m][1]
        walk = [start]
        cur = start
        for _ in range(4 * len(arr.edges) + 8):
            if arr.dart_origin[cur ^ 1] == x and next_real(cur) == stop:
                return walk
            cur = next_real(cur)
            if cur == start:
                return None
            walk.append(cur)
        return None

    for s1 in range(m):
        for s2 in range(m):
            if s1 == s2 or gaps[s1] == (0, 0) or gaps[s2] == (0, 0):
                continue
            if not all(
                _alternates(gaps[s1], gaps[s2], w1, w2)
                for w1, w2 in pairs.values()
            ):
                continue
            f1 = arr.walk_face[arr.face_of_dart[fan[(s1 + 1) % m][1]]]
            f2 = arr.walk_face[arr.face_of_dart[fan[(s2 + 1) % m][1]]]
            if f1 != f2:
                continue
            walk = corner_walk(s1, s2)
            if walk is None:
                continue
            pts: list[RatPoint] = []
            for d in walk:
                g = _chain_lift(pts[-1] if pts else x, arr.dart_geometry(d))
                pts.extend(g if not pts else g[1:])
            eps = Fraction(1, 64)
            for _ in range(20):
                cand = TorusCurve(_offset_walk(pts, eps))
                try:
                    check_vertex(cand)
                except NotAVertex:
                    eps /= 2
                    continue
                if all(
                    isinstance(tag := is_edge(cand, w), TransverseEdge)
                    and torus_rep(tag.point) == x
                    for w in curves
                ):
                    return cand
                eps /= 2
    raise WitnessSearchFailed("no boundary-hugging curve through the point")


def _aux_delta(curves: Sequence[TorusCurve], x: RatPoint):
    """A vertex through x meeting each of the curves exactly there,
    transversely.

    Its two germ directions are picked inside gaps of the direction fan so
    that they separate every curve's branch pair; the body is routed in the
    complement of the given curves."""
    x = torus_rep(x)
    pairs = [_germ_dirs(w, x) for w in curves]

    def unit(d):
        s = max(abs(d[0]), abs(d[1]))
        return (d[0] / s, d[1] / s)

    fan = sort_directions(
        [(unit(d), i) for i, pr in enumerate(pairs) for d in pr]
    )
    dirs = [d for d, _ in fan]
    m = len(dirs)
    gaps = [vadd(dirs[i], dirs[(i + 1) % m]) for i in range(m)]
    obstacles = SegmentSet(
        [s for w in curves for s in w.segments()], wrap_x=True, wrap_y=True
    )

    def reach(d):
        # walk outward from x along d as far as the straight leg stays clear
        s = max(abs(d[0]), abs(d[1]))
        eps = Fraction(1, 64)
        best = None
        while eps <= Fraction(1, 4):
            p = vadd(x, smul(eps / s, d))
            if obstacles.hits(Segment(x, p), allow=[x]):
                break
            best = p
            eps *= 2
        return best
    def attempt(gi, gj):
        d1, d2 = gaps[gi], gaps[gj]
        if d1 == (0, 0) or d2 == (0, 0):
            return None
        if not all(_alternates(d1, d2, w1, w2) for w1, w2 in pairs):
            return None
        p1 = reach(d1)
        p2 = reach(d2)
        if p1 is None or p2 is None:
            return None
        delta = close_through([[p1, x, p2]], curves)
        if delta is None or delta.homology == (0, 0):
            return None
        for w in curves:
            tag = is_edge(delta, w)
            if not (
                isinstance(tag, TransverseEdge) and torus_rep(tag.point) == x
            ):
                return None
        return delta

    for gi in range(m):
        for gj in range(m):
            if gi == gj:
                continue
            delta = attempt(gi, gj)
            if delta is not None:
                return delta
    # grid routing cannot cross channels narrower than its finest step, so
    # fall back to hugging the face boundary through the thin parts
    return _boundary_hug_delta(curves, x)


def bouquet_chain(a: TorusCurve, b: TorusCurve, c: TorusCurve) -> ChainCertificate:
    """Certificate connecting the edges (a, b) and (a, c) through bouquet
    moves, all sharing the single point where b and c cross a."""
    tag_b = is_edge(a, b)
    tag_c = is_edge(a, c)
    if not (isinstance(tag_b, TransverseEdge) and isinstance(tag_c, TransverseEdge)):
        raise NotAClique("both inputs must meet the base curve transversely")
    x = torus_rep(tag_b.point)
    if torus_rep(tag_c.point) != x:
        raise PointsDiffer("edges cross the base curve at different points")
    if _curves_coincide(b, c):
        return ChainCertificate(edges=[EdgeT(a, b, x)], moves=[])
    S = cut_along(a, x)
    g_b = S.curve_to_arc(b)
    g_c = S.curve_to_arc(c)
    arcs = unicorn_path(S, g_b, g_c)
    curves = [b] + [S.arc_to_curve(ar) for ar in arcs[1:-1]] + [c]
    edges = []
    for w in curves:
        tag = is_edge(a, w)
        if not (isinstance(tag, TransverseEdge) and torus_rep(tag.point) == x):
            raise WitnessSearchFailed("re-glued curve lost the edge with a")
        edges.append(EdgeT(a, w, x))
    out_edges = [edges[0]]
    moves = []
    for i in range(len(curves) - 1):
        u, w = curves[i], curves[i + 1]
        tag = is_edge(u, w)
        if isinstance(tag, TransverseEdge) and torus_rep(tag.point) == x:
            moves.append((a, u, w))
            out_edges.append(EdgeT(a, w, x))
            continue
        # germs on the same boundary side touch at x: thread an auxiliary
        # curve between them so both hops are honest bouquets
        try:
            bridge = [_aux_delta([a, u, w], x)]
        except WitnessSearchFailed:
            # no single curve through x can dodge all three bodies: hop via
            # two auxiliaries, each avoiding only the curves of its own moves
            bridge = None
            for first, last in ((u, w), (w, u)):
                try:
                    d1 = _aux_delta([a, first], x)
                    d2 = _aux_delta([a, last, d1], x)
                except WitnessSearchFailed:
                    continue
                bridge = [d1, d2] if first is u else [d2, d1]
                break
            if bridge is None:
                raise
        hops = [u] + bridge + [w]
        for k in range(len(hops) - 1):
            moves.append((a, hops[k], hops[k + 1]))
            out_edges.append(EdgeT(a, hops[k + 1], x))
    return ChainCertificate(edges=out_edges, moves=moves)


def verify_chain(cert: ChainCertificate) -> list[str]:
    """Independent validation; returns violations (empty list = accepted)."""
    out = []
    if not cert.edges:
        return ["empty chain"]
    x = torus_rep(cert.edges[0].point)
    for i, e in enumerate(cert.edges):
        tag = is_edge(e.a, e.b)
        if not isinstance(tag, TransverseEdge):
            out.append(f"edge {i} is not transverse")
        elif torus_rep(tag.point) != x:
            out.append(f"edge {i} has a different point")
    if len(cert.moves) != len(cert.edges) - 1:
        out.append("move count does not match edge count")
        return out
    for i, (u, v, w) in enumerate(cert.moves):
        try:
            rep = classify_clique3(u, v, w)
        except (NotAClique, NotAVertex) as exc:
            out.append(f"move {i}: not a clique ({exc})")
            continue
        if rep.type != BOUQUET:
            out.append(f"move {i}: type {rep.type}, expected bouquet")
            continue
        if torus_rep(rep.points[0]) != x:
            out.append(f"move {i}: bouquet at a different point")
        ei, ej = cert.edges[i], cert.edges[i + 1]
        if not (
            _curves_coincide(u, ei.a)
            and _curves_coincide(v, ei.b)
            and _curves_coincide(w, ej.b)
        ):
            out.append(f"move {i}: does not connect edges {i} and {i+1}")
    return out
