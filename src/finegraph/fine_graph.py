"""Edge predicate, 3-clique classification, and witness constructions.

Vertices are simple nonseparating torus curves.  Two vertices span an edge
when they are disjoint or meet in exactly one topologically transverse
point.  A 3-clique of profile (1,1,1) is a necklace when its three pairwise
intersection points are distinct and a bouquet when they coincide.

Witness vertices are closed loops through a few fixed pieces (gates across
curves, a germ at a point, the kept part of a curve).  ``close_through`` is
the one loop closer: it joins the pieces by ``torus_route`` legs and keeps
the loop only when it is simple.
"""

from __future__ import annotations

import itertools

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .geom_core import (
    RatPoint,
    Segment,
    cross,
    path_segments,
    smul,
    vadd,
    vsub,
)
from .curves_ops import (
    TRANSVERSE,
    ClearanceFailure,
    SideChoice,
    intersect_curves,
    push_aside,
)
from .routing import ON_OBSTACLE, SegmentSet, torus_route
from .surfaces import (
    Arrangement,
    Face,
    TorusCurve,
    _CurveTrace,
    curve_arrangement,
    lift_on_path,
    torus_curve_simple,
    torus_pair_hits,
    torus_rep,
)


class NotAVertex(ValueError):
    pass


class NotAClique(ValueError):
    pass


class NotANecklace(ValueError):
    pass


class IsNecklace(ValueError):
    pass


class WitnessSearchFailed(RuntimeError):
    pass


# edge classification tags


@dataclass(frozen=True)
class NonEdge:
    pass


@dataclass(frozen=True)
class DisjointEdge:
    pass


@dataclass(frozen=True)
class TransverseEdge:
    point: RatPoint


ALL_DISJOINT = "all_disjoint"
ONE_PAIR = "one_pair"
TWO_PAIR = "two_pair"
NECKLACE = "necklace"
BOUQUET = "bouquet"


@dataclass
class Clique3Report:
    profile: tuple[int, int, int]
    type: str
    points: list[RatPoint]

    def to_json(self):
        return {
            "profile": list(self.profile),
            "clique_type": self.type,
            "points": [[str(p[0]), str(p[1])] for p in self.points],
        }


@dataclass
class EdgeT:
    a: TorusCurve
    b: TorusCurve
    point: RatPoint


@dataclass
class NecklaceArcs:
    """Six arcs (x, X, y, Y, z, Z) with a = x|X, b = y|Y, c = z|Z.

    Each entry is a lifted PL path between two of the three clique points;
    arcs of one curve meet arcs of another only at those points."""

    points: tuple[RatPoint, RatPoint, RatPoint]
    arcs: dict[str, list[RatPoint]]


def check_vertex(c: TorusCurve) -> None:
    if c.homology == (0, 0):
        raise NotAVertex("separating curve (zero homology)")
    if not torus_curve_simple(c):
        raise NotAVertex("curve is not simple")


def is_edge(a: TorusCurve, b: TorusCurve):
    check_vertex(a)
    check_vertex(b)
    rep = intersect_curves(a, b)
    if rep.overlaps:
        return NonEdge()
    if not rep.points:
        return DisjointEdge()
    if len(rep.points) == 1 and rep.points[0][1] == TRANSVERSE:
        return TransverseEdge(rep.points[0][0])
    return NonEdge()


def classify_clique3(a: TorusCurve, b: TorusCurve, c: TorusCurve) -> Clique3Report:
    return clique3_of_tags(is_edge(a, b), is_edge(a, c), is_edge(b, c))


def clique3_of_tags(*tags) -> Clique3Report:
    """The 3-clique report of a triple from its pair tags (ab, ac, bc)."""
    if any(isinstance(t, NonEdge) for t in tags):
        raise NotAClique("pairwise edge condition fails")
    points = [t.point for t in tags if isinstance(t, TransverseEdge)]
    counts = tuple(
        sorted(
            (1 if isinstance(t, TransverseEdge) else 0 for t in tags),
            reverse=True,
        )
    )
    if counts == (1, 1, 1):
        distinct = len(set(points)) == 3
        same = len(set(points)) == 1
        if distinct:
            typ = NECKLACE
        elif same:
            typ = BOUQUET
        else:
            # two of three points coincide: the pair meeting there and the
            # curve through both points would violate simplicity, so this
            # cannot occur for honest vertices; classify defensively
            raise NotAClique("degenerate (1,1,1) configuration")
    else:
        typ = {0: ALL_DISJOINT, 1: ONE_PAIR, 2: TWO_PAIR}[sum(counts)]
    return Clique3Report(profile=counts, type=typ, points=points)


# ----------------------------------------------------------- necklace arcs


def _param_of_point(tr: _CurveTrace, curve: TorusCurve, other: TorusCurve, point: RatPoint) -> Fraction:
    """Param in [0, n) along curve (traced by tr) of a torus point where
    curve meets other."""
    for v, si, sj, res in torus_pair_hits(curve, other):
        if hasattr(res, "point") and torus_rep(res.point) == point:
            return tr.param_of(si, res.point) % tr.n
    raise RuntimeError("point not on both curves")


def necklace_arcs(a: TorusCurve, b: TorusCurve, c: TorusCurve) -> NecklaceArcs:
    tags = [is_edge(a, b), is_edge(a, c), is_edge(b, c)]
    rep = clique3_of_tags(*tags)
    if rep.type != NECKLACE:
        raise NotANecklace(rep.type)
    p_ab, p_ac, p_bc = (torus_rep(t.point) for t in tags)
    pts = tuple(sorted([p_ab, p_ac, p_bc]))

    def split(curve, other1, q1, other2, q2):
        tr = _CurveTrace(curve, 0)
        t1 = _param_of_point(tr, curve, other1, q1)
        t2 = _param_of_point(tr, curve, other2, q2)
        return tr.sub_path(t1, t2), tr.sub_path(t2, t1)

    arcs = {}
    arcs["x"], arcs["X"] = split(a, b, p_ab, c, p_ac)
    arcs["y"], arcs["Y"] = split(b, a, p_ab, c, p_bc)
    arcs["z"], arcs["Z"] = split(c, a, p_ac, b, p_bc)
    return NecklaceArcs(points=pts, arcs=arcs)


def _chain_arcs(parts: list[list[RatPoint]]) -> TorusCurve:
    """Concatenate lifted arcs whose endpoints agree as torus points."""
    out = list(parts[0])
    for arc in parts[1:]:
        d = vsub(out[-1], arc[0])
        if d[0].denominator != 1 or d[1].denominator != 1:
            raise RuntimeError("arcs do not chain at a torus point")
        out.extend(vadd(p, d) for p in arc[1:])
    return TorusCurve(out)


def _cut_corners(curve: TorusCurve, corners: set[RatPoint], t: Fraction) -> TorusCurve:
    """Shortcut every vertex of the lift projecting into ``corners``.

    The vertex is replaced by two points a fraction t along its incident
    segments, smoothing the junction within a small disc."""
    path = curve.period_path()
    pts = path[:-1]
    h = curve.homology
    n = len(pts)
    out = []
    for i, p in enumerate(pts):
        if torus_rep(p) in corners:
            prev = pts[i - 1] if i > 0 else vsub(pts[-1], (Fraction(h[0]), Fraction(h[1])))
            nxt = pts[i + 1] if i + 1 < n else vadd(pts[0], (Fraction(h[0]), Fraction(h[1])))
            out.append(vadd(p, smul(t, vsub(prev, p))))
            out.append(vadd(p, smul(t, vsub(nxt, p))))
        else:
            out.append(p)
    return TorusCurve(out + [vadd(out[0], (Fraction(h[0]), Fraction(h[1])))])


def necklace_witness_F(
    a: TorusCurve, b: TorusCurve, c: TorusCurve
) -> list[TorusCurve]:
    """The witness set F of a necklace: the nonseparating smoothed
    combination curves assembled from one arc per letter."""
    na = necklace_arcs(a, b, c)
    out = []
    for xa in ("x", "X"):
        for yb in ("y", "Y"):
            for zc in ("z", "Z"):
                # orient each chosen arc to run p_ab -> p_ac -> p_bc -> p_ab
                arc_a = na.arcs["x"] if xa == "x" else list(reversed(na.arcs["X"]))
                arc_c = na.arcs["z"] if zc == "z" else list(reversed(na.arcs["Z"]))
                arc_b = list(reversed(na.arcs["y"])) if yb == "y" else na.arcs["Y"]
                try:
                    comb = _chain_arcs([arc_a, arc_c, arc_b])
                except (RuntimeError, ValueError):
                    continue
                if comb.homology == (0, 0):
                    continue
                corners = set(na.points)
                t = Fraction(1, 8)
                smoothed = None
                for _ in range(40):
                    cand = _cut_corners(comb, corners, t)
                    if torus_curve_simple(cand):
                        smoothed = cand
                        break
                    t /= 2
                if smoothed is not None:
                    out.append(smoothed)
    if not (1 <= len(out) <= 8):
        raise WitnessSearchFailed(f"|F| = {len(out)}")
    return out


# ------------------------------------------------------- face membership


class NotFar(ValueError):
    pass


class _FaceLocator:
    """Maps points to the merged faces of an arrangement by one exact ray.

    ``SegmentSet.first_hit`` sends a ray of length 1 from the point: upward
    when some input curve has homology x != 0, so that it crosses every
    vertical loop, and rightward otherwise.  The input-curve segment it meets
    first lies on an edge, and the point is in the face of the dart of that
    edge whose right side the ray leaves (face walks keep their face on the
    right).  Scaffold edges are not obstacles, since faces are merged across
    them.  A point on an input curve raises WitnessSearchFailed."""

    def __init__(self, arr: Arrangement):
        self.arr = arr
        segs = []
        self.seg_edge: list[tuple[int, RatPoint]] = []
        for e, ed in enumerate(arr.edges):
            if ed["label"] >= arr.n_input:
                continue
            g = ed["geom"]
            for i in range(len(g) - 1):
                segs.append(Segment(g[i], g[i + 1]))
                self.seg_edge.append((e, vsub(g[i + 1], g[i])))
        self.obstacles = SegmentSet(segs, wrap_x=True, wrap_y=True)
        self.axis = int(any(t.curve.homology[0] for t in arr.traces[: arr.n_input]))

    def locate(self, p: RatPoint) -> int:
        hit = self.obstacles.first_hit(p, 1, self.axis)
        if hit is None or hit is ON_OBSTACLE:
            raise WitnessSearchFailed("face location failed")
        e, w = self.seg_edge[hit[1]]
        u = (0, 1) if self.axis else (1, 0)
        d = 2 * e if cross(w, u) > 0 else 2 * e + 1
        return self.arr.walk_face[self.arr.face_of_dart[d]]


def _arc_params(d: TorusCurve, curves: Sequence[TorusCurve], spots: Sequence[Fraction]):
    """Params of d at the fractions ``spots`` of each maximal arc of d
    between its meetings with the curves, with d's trace.  When d meets none
    of them, the param of each segment midpoint instead."""
    tr = _CurveTrace(d, 0)
    params = set()
    for u in curves:
        for v, si, sj, res in torus_pair_hits(d, u):
            if not hasattr(res, "point"):
                raise WitnessSearchFailed("overlap while sampling pieces")
            params.add(tr.param_of(si, res.point) % tr.n)
    params = sorted(params)
    if not params:
        return tr, [Fraction(2 * i + 1, 2) for i in range(tr.n)]
    out = []
    for k, t1 in enumerate(params):
        t2 = params[k + 1] if k + 1 < len(params) else params[0] + tr.n
        if t2 != t1:
            out.extend((t1 + (t2 - t1) * fr) % tr.n for fr in spots)
    return tr, out


def faces_met(
    d: TorusCurve,
    curves: Sequence[TorusCurve],
    faces: Sequence[Face],
    locator: Optional[_FaceLocator] = None,
):
    """Indices into ``faces`` (``complement_components(curves)``) of the
    complementary faces that d passes through, with one witness param of d
    per face.  Without a locator, one is built on the curves' arrangement."""
    if locator is None:
        locator = _FaceLocator(curve_arrangement(curves))
    tr, params = _arc_params(d, curves, (Fraction(1, 2),))
    met: dict[int, list[Fraction]] = {}
    for t in params:
        met.setdefault(locator.locate(torus_rep(tr.point_at(t))), []).append(t)
    return met


# ---------------------------------------------------------- far witnesses


def _segset(seg_lists) -> SegmentSet:
    segs = []
    for part in seg_lists:
        if isinstance(part, TorusCurve):
            segs.extend(part.segments())
        else:
            segs.extend(path_segments(part))
    return SegmentSet(segs, wrap_x=True, wrap_y=True)


def _gate(curve: TorusCurve, own: SegmentSet, seg_index: int, frac: Fraction, t: Fraction):
    """A short transversal path [side1 end, m, side2 end] across one segment
    of the curve at the point m a fraction ``frac`` along it, or None when
    the gate meets the curve (whose obstacle set is ``own``) away from m."""
    s = curve.segments()[seg_index]
    d = vsub(s.q, s.p)
    m = vadd(s.p, smul(frac, d))
    nrm = (-d[1], d[0])
    e1, e2 = vadd(m, smul(t, nrm)), vsub(m, smul(t, nrm))
    if own.hits(Segment(e1, m), allow=[m]) or own.hits(Segment(m, e2), allow=[m]):
        return None
    return [e1, m, e2]


def close_through(pieces: Sequence[list[RatPoint]], fixed: Sequence) -> Optional[TorusCurve]:
    """A simple loop through the lifted paths ``pieces`` in order, or None.

    The gap from the end of each piece to the start of the next (the last
    piece closes back to the first) is routed by ``torus_route`` clear of
    ``fixed`` (curves or paths), of every piece and of the routes built
    before it."""
    routes = []
    for i, piece in enumerate(pieces):
        obs = _segset([*fixed, *pieces, *routes])
        r = torus_route(obs, piece[-1], pieces[(i + 1) % len(pieces)][0])
        if r is None:
            return None
        routes.append(r)
    try:
        loop = _chain_arcs([arc for pair in zip(pieces, routes) for arc in pair])
    except (RuntimeError, ValueError):
        return None
    return loop if torus_curve_simple(loop) else None


def far_witness(a: TorusCurve, b: TorusCurve, c: TorusCurve):
    """For an edge {a, b} whose point misses c, vertices a', b' sharing the
    germs of a, b at that point and forming a non-bouquet 3-clique with c."""
    tag = is_edge(a, b)
    if not isinstance(tag, TransverseEdge):
        raise NotAClique("need a transverse edge {a, b}")
    check_vertex(c)
    x = torus_rep(tag.point)
    if lift_on_path(x, c.period_path()) is not None:
        raise NotFar("the edge point lies on c")

    ta = _CurveTrace(a, 0)
    tb = _CurveTrace(b, 1)
    pa = _param_of_point(ta, a, b, x)
    pb = _param_of_point(tb, b, a, x)
    n_c = len(c.segments())

    # the first 12 gate pairs (i1, i2) in row-major order; two gates on
    # one segment of c sit at different fractions
    cands = [divmod(k, n_c) for k in range(min(12, n_c * n_c))]
    delta = Fraction(1, 8)
    for _ in range(12):
        germ_a = ta.sub_path((pa - delta) % ta.n, (pa + delta) % ta.n)
        germ_b = tb.sub_path((pb - delta) % tb.n, (pb + delta) % tb.n)
        built = None
        for i1, i2 in cands:
            f2 = Fraction(1, 3) if i1 == i2 else Fraction(1, 2)
            gt = Fraction(1, 16)
            res = _build_germ_loop(
                germ_a, c, i1, Fraction(1, 2), gt, extra=[germ_b]
            )
            if res is None:
                continue
            a2 = res
            try:
                check_vertex(a2)
            except NotAVertex:
                continue
            if not isinstance(is_edge(a2, c), TransverseEdge):
                continue
            res2 = _build_germ_loop(
                germ_b, c, i2, f2, gt, extra=[germ_a, a2]
            )
            if res2 is None:
                continue
            b2 = res2
            try:
                check_vertex(b2)
            except NotAVertex:
                continue
            tag2 = is_edge(a2, b2)
            if not (isinstance(tag2, TransverseEdge) and torus_rep(tag2.point) == x):
                continue
            try:
                rep3 = classify_clique3(a2, b2, c)
            except (NotAClique, NotAVertex):
                continue
            if rep3.type == BOUQUET:
                continue
            built = (a2, b2)
            break
        if built is not None:
            return built
        delta /= 2
    raise WitnessSearchFailed("no far witness pair found")


def _build_germ_loop(germ, c, seg_index, frac, gate_t, extra=()):
    """Close a germ arc into a simple loop crossing c exactly once.

    The loop runs from the germ's forward end to a gate through c and back
    to the germ's backward end, avoiding c and the extra obstacles."""
    own = _segset([c])
    for _ in range(8):
        gate = _gate(c, own, seg_index, frac, gate_t)
        if gate is not None:
            loop = close_through([germ, gate], [c, *extra])
            if loop is not None:
                return loop
        gate_t /= 2
    return None


# ------------------------------------------------- refuting the N property


def _is_4clique(d: TorusCurve, curves: Sequence[TorusCurve]) -> bool:
    try:
        check_vertex(d)
    except NotAVertex:
        return False
    return all(
        not isinstance(is_edge(d, u), NonEdge) for u in curves
    )


def _probe_gate(curves, run, gate_t):
    """Straight gate path [e1, m, e2], m on the first curve of ``run``,
    crossing every curve of the run while clearing the rest.  Bridges stacks of mutually close curves whose gaps are thinner
    than any routing grid; crossing multiplicities are verified on the
    assembled loop, not here."""
    u = curves[run[0]]
    rest = [c for j, c in enumerate(curves) if j not in run]
    clear = _segset(rest) if rest else None
    run_sets = [_segset([curves[j]]) for j in run]
    for seg in u.segments():
        dvec = vsub(seg.q, seg.p)
        s = max(abs(dvec[0]), abs(dvec[1]))
        nrm = (dvec[1] / s, -dvec[0] / s)
        for fc in (Fraction(1, 2), Fraction(1, 4), Fraction(3, 4)):
            m = vadd(seg.p, smul(fc, dvec))
            reach = gate_t
            while reach <= Fraction(1, 4):
                e1 = vsub(m, smul(gate_t, nrm))
                e2 = vadd(m, smul(reach, nrm))
                pr = Segment(e1, e2)
                reach *= 2
                if clear is not None and clear.hits(pr):
                    break
                if not all(rs.hits(pr) for rs in run_sets):
                    continue
                return [e1, m, e2]
    return None


def _routed_loop(
    curves: Sequence[TorusCurve],
    order: Sequence[int],
    locator: Optional[_FaceLocator] = None,
    groups: Optional[Sequence[Sequence[int]]] = None,
) -> Optional[TorusCurve]:
    """A simple loop crossing each curve in ``order`` exactly once, built
    from transversal gates joined by routes in the common complement.

    ``groups`` partitions the order into runs crossed by a single straight
    probe each; the default is one run per curve.  Each gate may be crossed
    in either direction; the exit side of one gate must lie in the same face
    as the entry side of the next, which is checked with the locator before
    any routing is attempted."""
    from itertools import product

    if groups is None:
        groups = [(k,) for k in order]
    gate_t = Fraction(1, 16)
    for _ in range(5):
        base = []
        for run in groups:
            found = None
            prev = _segset(base)
            if len(run) > 1:
                found = _probe_gate(curves, run, gate_t)
                if found is not None and prev.hits(Segment(found[0], found[2])):
                    found = None
            else:
                k = run[0]
                u = curves[k]
                blockers = _segset([c for j, c in enumerate(curves) if j != k])
                own = _segset([u])
                for si in range(len(u.segments())):
                    for fc in (Fraction(1, 2), Fraction(1, 4), Fraction(3, 4)):
                        g = _gate(u, own, si, fc, gate_t)
                        if g is None:
                            continue
                        chord = Segment(g[0], g[2])
                        if blockers.hits(chord) or prev.hits(chord):
                            continue
                        found = g
                        break
                    if found is not None:
                        break
            if found is None:
                break
            base.append(found)
        if len(base) < len(groups):
            gate_t /= 2
            continue

        # the faces on both sides of every gate, located once; flipping a
        # gate swaps its ends and so its two faces
        ends = None
        if locator is not None:
            ends = []
            for g in base:
                pair = []
                for p in (g[0], g[2]):
                    try:
                        pair.append(locator.locate(torus_rep(p)))
                    except WitnessSearchFailed:
                        pair.append(None)
                ends.append(pair)

        for flips in product((1, -1), repeat=len(base)):
            if ends is not None:
                sides = [ends[gi][::f] for gi, f in enumerate(flips)]
                if not all(
                    sides[gi][1] is not None
                    and sides[gi][1] == sides[(gi + 1) % len(sides)][0]
                    for gi in range(len(sides))
                ):
                    continue
            loop = close_through([g[::f] for g, f in zip(base, flips)], curves)
            if loop is not None:
                return loop
        gate_t /= 2
    return None


def _alpha_crossings(d: TorusCurve, alpha: TorusCurve) -> int:
    rep = intersect_curves(d, alpha)
    if rep.overlaps:
        return -1
    return len(rep.transverse_points())


def _add_finger(
    d: TorusCurve,
    curves: Sequence[TorusCurve],
    locator: _FaceLocator,
    alpha: TorusCurve,
    others: Sequence[TorusCurve] = (),
) -> Optional[TorusCurve]:
    """Splice a detour into d that crosses alpha twice inside one face.

    Curves in ``others`` are kept clear of the detour; extra transverse
    crossings with curves not listed are harmless, so leaving the list empty
    gives the router far more room."""
    # a single sample per arc is too brittle: after a detour is spliced in,
    # the param midpoint of an arc can sit deep inside the detour's narrow
    # corridor where routing has no room
    spots = (
        Fraction(1, 2), Fraction(1, 4), Fraction(3, 4),
        Fraction(1, 8), Fraction(7, 8),
    )
    tr, params = _arc_params(d, curves, spots)
    met: dict[int, list[Fraction]] = {}
    for t in params:
        try:
            fi = locator.locate(torus_rep(tr.point_at(t)))
        except WitnessSearchFailed:
            continue
        met.setdefault(fi, []).append(t)
    blockers = _segset([*curves, d, *others])
    aset = _segset([alpha])
    # alpha is deliberately not a routing obstacle: extra transverse
    # crossings with it are welcome, and detours that must pass across it
    # to reach the gate chamber would otherwise be impossible
    fixed = [*curves, *others]
    centers = (
        Fraction(1, 2), Fraction(1, 4), Fraction(3, 4),
        Fraction(1, 8), Fraction(3, 8), Fraction(5, 8), Fraction(7, 8),
    )
    w = Fraction(1, 32)
    gate_t = Fraction(1, 32)
    for shrink in range(4):
        for si in range(len(alpha.segments())):
            for fc in centers:
                for orient_flip in (1, -1):
                    res = _try_finger(
                        tr, met, locator, alpha, si, fc, w,
                        gate_t * orient_flip, blockers, aset, fixed,
                    )
                    if res is not None:
                        return res
        w /= 2
        gate_t /= 2
    return None


def _try_finger(tr, met, locator, alpha, si, fc, w, gate_t, blockers, aset, fixed):
    f1 = fc - w
    f2 = fc + w
    if not (0 < f1 < f2 < 1):
        return None
    # each crossing segment meets alpha exactly at its midpoint; the walk
    # between the inner points stays clear of it
    g1 = _gate(alpha, aset, si, f1, gate_t)
    g2 = _gate(alpha, aset, si, f2, gate_t)
    if g1 is None or g2 is None or aset.hits(Segment(g1[2], g2[2])):
        return None
    gate_path = g1 + g2[::-1]
    for k in range(len(gate_path) - 1):
        if blockers.hits(Segment(gate_path[k], gate_path[k + 1])):
            return None
    try:
        face = locator.locate(torus_rep(gate_path[0]))
    except WitnessSearchFailed:
        return None
    for param in met.get(face, ()):
        # the excised gap may span a vertex of d; simplicity and the clique
        # property are rechecked downstream, so bad splices just get dropped
        gap = Fraction(1, 64)
        keep = tr.sub_path((param + gap) % tr.n, (param - gap) % tr.n)
        loop = close_through([keep, gate_path], fixed)
        if loop is not None:
            return loop
    return None


def refute_N(
    a: TorusCurve,
    b: TorusCurve,
    c: TorusCurve,
    alphas: Sequence[TorusCurve] = (),
) -> TorusCurve:
    """A fourth vertex d completing {a, b, c} to a 4-clique, meeting every
    complementary face and crossing each alpha in at least two transverse
    points.  Raises IsNecklace when no such d can exist."""
    rep = classify_clique3(a, b, c)
    if rep.type == NECKLACE:
        raise IsNecklace("necklaces satisfy the property being refuted")
    curves = [a, b, c]
    for al in alphas:
        check_vertex(al)
    arr = curve_arrangement(curves)
    faces, locator = arr.faces, _FaceLocator(arr)
    all_faces = set(range(len(faces)))

    def routed_candidates():
        for size in (3, 2, 1):
            for combo in itertools.combinations(range(3), size):
                for order in itertools.permutations(combo):
                    loop = _routed_loop(curves, order, locator)
                    if loop is not None:
                        yield loop
        # stacks of mutually close curves defeat per-curve gates; retry with
        # probe runs that cross several curves in one straight segment
        for order in itertools.permutations(range(3)):
            for groups in (
                [(order[0],), (order[1], order[2])],
                [tuple(order)],
            ):
                loop = _routed_loop(curves, order, locator, groups)
                if loop is not None:
                    yield loop

    def pushed_candidates():
        for u in curves:
            obstacles = [v for v in curves if v is not u]
            for side in (SideChoice.LEFT, SideChoice.RIGHT):
                try:
                    yield push_aside(u, side, obstacles=obstacles)
                except ClearanceFailure:
                    pass

    def finish(d):
        for al in alphas:
            need = 2 - max(0, _alpha_crossings(d, al))
            if need <= 0:
                continue
            # extra crossings with the remaining alphas are allowed, so the
            # detour only dodges them when the permissive route degenerates;
            # a fully failed permissive pass never succeeds with even more
            # obstacles, so it is not retried
            d2 = _add_finger(d, curves, locator, al)
            if d2 is not None and any(_alpha_crossings(d2, x) < 0 for x in alphas):
                done = [x for x in alphas if x is not al]
                d2 = _add_finger(d, curves, locator, al, done)
            if d2 is None:
                return None
            d = d2
            if not _is_4clique(d, curves):
                return None
            if set(faces_met(d, curves, faces, locator)) != all_faces:
                return None
        for al in alphas:
            if _alpha_crossings(d, al) < 2:
                return None
        return d

    # routed loops live on grid nodes, a comfortable clearance from the
    # input curves; pushed-aside copies hug their parent in a channel the
    # finger router may not resolve, so try them second
    for d in itertools.chain(routed_candidates(), pushed_candidates()):
        try:
            if not _is_4clique(d, curves):
                continue
            if set(faces_met(d, curves, faces, locator)) != all_faces:
                continue
            out = finish(d)
        except WitnessSearchFailed:
            # a candidate the face locator cannot sample is just skipped
            continue
        if out is not None:
            return out
    raise WitnessSearchFailed("no refuting vertex found")
