"""Surface models, covering-space lifts, homology, and arrangement faces.

A torus curve is stored as one lifted period in the plane: a PL path whose
endpoint difference is the integer homology vector.  It keeps its segments
and, beside them, their ``PreparedSegments`` for the float prefilter.  All
quotient geometry (simplicity, intersections, faces) is computed exactly over
the finitely many integer translates that ``geom_core.lattice_shifts`` lists
for the float bounds.

In a strip the deck shifts are (k, 0), the same rule without y-wrap, and
``shifts_meeting`` is the one computation of the set K of shifts under which
two lifts meet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from fractions import Fraction
from typing import Optional, Sequence

from .geom_core import (
    Empty,
    Overlap,
    RatPoint,
    Segment,
    PreparedSegments,
    bbox_candidate_pairs,
    contacts,
    cross,
    edges_self_intersect,
    lattice_shifts,
    mat_apply,
    orient,
    path_segments,
    segment_intersection,
    shift_segment,
    sign,
    smul,
    vadd,
    vsub,
)
from .routing import SegmentSet


class SurfaceModel(Enum):
    TORUS = "torus"
    COMPACT_ANNULUS = "cannulus"
    OPEN_ANNULUS = "oannulus"
    PUNCTURED_PLANE = "plane"


class ModelMismatch(ValueError):
    pass


class DegenerateOverlap(ValueError):
    pass


INFINITE = "inf"


def torus_rep(p: RatPoint) -> RatPoint:
    """Canonical representative of a torus point in [0,1) x [0,1)."""
    return (p[0] - math.floor(p[0]), p[1] - math.floor(p[1]))


@dataclass(frozen=True)
class TorusCurve:
    """A closed PL curve on R^2/Z^2, given by one lifted period.

    ``lift`` runs from v0 to v0+(p,q), where (p,q) is the integer
    ``homology``.  Equality, hashing and repr use ``lift`` alone; the
    segments, their prepared float data and the simplicity verdict are
    computed once per object, when first needed.
    """

    lift: tuple[RatPoint, ...]
    homology: tuple[int, int] = field(init=False, repr=False, compare=False)

    def __init__(self, lift: Sequence[RatPoint]):
        lift = tuple((Fraction(x), Fraction(y)) for x, y in lift)
        if len(lift) < 2:
            raise ValueError("lift needs at least two points")
        d = vsub(lift[-1], lift[0])
        if d[0].denominator != 1 or d[1].denominator != 1:
            raise ValueError("lift endpoints must differ by an integer vector")
        # drop repeated consecutive points
        clean = [lift[0]]
        for p in lift[1:]:
            if p != clean[-1]:
                clean.append(p)
        if len(clean) < 2:
            raise ValueError("degenerate lift")
        object.__setattr__(self, "lift", tuple(clean))
        object.__setattr__(self, "homology", (int(d[0]), int(d[1])))

    def period_path(self) -> list[RatPoint]:
        """The lift as a closed period: it ends at its first point plus the
        homology."""
        return list(self.lift)

    @cached_property
    def _segments(self) -> tuple[Segment, ...]:
        return tuple(path_segments(self.lift))

    @cached_property
    def _prepared(self) -> PreparedSegments:
        return PreparedSegments(self._segments)

    def segments(self) -> list[Segment]:
        return list(self._segments)

    def translate(self, v: tuple[int, int]) -> "TorusCurve":
        w = (Fraction(v[0]), Fraction(v[1]))
        return TorusCurve([vadd(p, w) for p in self.lift])

    def reversed(self) -> "TorusCurve":
        return TorusCurve(list(reversed(self.period_path())))


def affine_curve(path: Sequence[RatPoint], m, v=(0, 0)) -> TorusCurve:
    """The torus curve lifted by the images m p + v of the points p of a
    lifted path: the one affine image of a curve or of a strip arc."""
    return TorusCurve([vadd(mat_apply(m, p), v) for p in path])


def path_homology(path: Sequence[RatPoint]) -> tuple[Fraction, Fraction]:
    d = vsub(path[-1], path[0])
    return (d[0], d[1])


def lift_on_path(
    p: RatPoint, path: Sequence[RatPoint]
) -> Optional[tuple[int, RatPoint]]:
    """The first (k, q) with q = p + (i, j) for integers i, j lying on
    segment k of ``path_segments(path)``, searched by k, then i, then j; None
    when no integer translate of p lies on the path."""
    for k, s in enumerate(path_segments(path)):
        x0, x1 = sorted((s.p[0], s.q[0]))
        y0, y1 = sorted((s.p[1], s.q[1]))
        for i in range(math.floor(x0 - p[0]), math.ceil(x1 - p[0]) + 1):
            for j in range(math.floor(y0 - p[1]), math.ceil(y1 - p[1]) + 1):
                q = (p[0] + i, p[1] + j)
                inside = x0 <= q[0] <= x1 and y0 <= q[1] <= y1
                if inside and orient(s.p, s.q, q) == 0:
                    return k, q
    return None


def torus_pair_hits(a: TorusCurve, b: TorusCurve):
    """All contacts between the projections of a and b.

    Yields (v, seg_a_index, seg_b_index, result) over integer translates v of
    b with a nonempty contact; results are exact segment classifications.
    """
    pa, pb = a._prepared, b._prepared
    return contacts(pa, pb, lattice_shifts(pa.bounds, pb.bounds))


def torus_curve_simple(c: TorusCurve) -> bool:
    """Is the projected curve embedded on the torus?  Decided once per curve
    object and kept on it."""
    if "_simple" not in c.__dict__:
        object.__setattr__(c, "_simple", _embedded(c))
    return c._simple


def _embedded(c: TorusCurve) -> bool:
    path = c.period_path()
    segs = c._prepared
    if edges_self_intersect(segs):
        return False
    h = c.homology
    shifts = [v for v in lattice_shifts(segs.bounds, segs.bounds) if v != (0, 0)]
    for v, _, _, res in contacts(segs, segs, shifts):
        if isinstance(res, Overlap):
            return False
        # consecutive periods are forced to share one endpoint
        if h != (0, 0) and (
            (v == h and res.point == path[-1])
            or (v == (-h[0], -h[1]) and res.point == path[0])
        ):
            continue
        return False
    return True


# --------------------------------------------------------------------------
# annulus arcs and deck translates


@dataclass(frozen=True)
class AnnulusArc:
    """A properly embedded PL arc in an annulus-like model.

    The lift lives in the universal-cover strip/plane; the deck
    transformation is T(x,y) = (x+1,y).  For the open annulus the arc may
    carry straight vertical ray extensions beyond its finite part:
    ``end_rays`` gives the ray direction sign (+1 up, -1 down, 0 none) at the
    start and end of the lift.
    """

    model: SurfaceModel
    lift: tuple[RatPoint, ...]
    end_rays: tuple[int, int] = (0, 0)

    def __init__(self, model, lift, end_rays=(0, 0)):
        lift = tuple((Fraction(x), Fraction(y)) for x, y in lift)
        if len(lift) < 2:
            raise ValueError("lift needs at least two points")
        end_rays = tuple(end_rays)
        if len(end_rays) != 2 or any(type(s) is not int or s not in (-1, 0, 1) for s in end_rays):
            raise ValueError("end_rays needs two entries, each -1, 0 or 1")
        if model is SurfaceModel.COMPACT_ANNULUS:
            ys = sorted((lift[0][1], lift[-1][1]))
            if ys != [Fraction(0), Fraction(1)]:
                raise ValueError("endpoints must lie on the two boundaries")
            if any(not 0 <= p[1] <= 1 for p in lift):
                raise ValueError("lift leaves the strip")
            if end_rays != (0, 0):
                raise ValueError("rays only on the open annulus")
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "lift", lift)
        object.__setattr__(self, "end_rays", end_rays)

    def segments(self) -> list[Segment]:
        return path_segments(self.lift)

    def shifted(self, k: int) -> "AnnulusArc":
        w = (Fraction(k), Fraction(0))
        return AnnulusArc(
            self.model, [vadd(p, w) for p in self.lift], self.end_rays
        )


def shifts_meeting(
    segs_u: Sequence[Segment],
    segs_v: Sequence[Segment],
    shifts: Sequence[tuple[int, int]],
) -> set[int]:
    """{k : segs_u + (k, 0) meets segs_v} over the given shifts (k, 0).

    A shift already found is not tested again, so this loop drops candidate
    pairs before their exact test and does not go through ``contacts``."""
    ks = set()
    for v, j, i in bbox_candidate_pairs(segs_v, segs_u, shifts):
        if v[0] in ks:
            continue
        res = segment_intersection(shift_segment(segs_u[i], v), segs_v[j])
        if not isinstance(res, Empty):
            ks.add(v[0])
    return ks


def _ray_segments(arc: AnnulusArc, span: Fraction) -> list[Segment]:
    """Materialize ray ends long enough to cover a vertical span."""
    out = []
    s0, s1 = arc.end_rays
    if s0:
        p = arc.lift[0]
        out.append(Segment(p, (p[0], p[1] + sign(s0) * span)))
    if s1:
        p = arc.lift[-1]
        out.append(Segment(p, (p[0], p[1] + sign(s1) * span)))
    return out


def lift_translates_hit(a: AnnulusArc, b: AnnulusArc):
    """K = {k : T^k(lift a) meets lift b}; exact, finite for these models."""
    if a.model is not b.model:
        raise ModelMismatch(f"{a.model} vs {b.model}")
    ya, yb = [p[1] for p in a.lift], [p[1] for p in b.lift]
    ay0, ay1, by0, by1 = min(ya), max(ya), min(yb), max(yb)
    span = abs(ay1 - ay0) + abs(by1 - by0) + max(
        abs(ay0 - by1), abs(by0 - ay1)
    ) + 1
    segs_a = PreparedSegments(a.segments() + _ray_segments(a, span))
    segs_b = PreparedSegments(b.segments() + _ray_segments(b, span))
    # vertical rays leave the x-extent of the lifts unchanged
    shifts = lattice_shifts(segs_b.bounds, segs_a.bounds, wrap_y=False)
    ks = shifts_meeting(segs_a, segs_b, shifts)
    # parallel co-directed rays escape any finite box: same x, same sign
    for k, _ in shifts:
        for sa in ((0, a.end_rays[0]), (-1, a.end_rays[1])):
            for sb in ((0, b.end_rays[0]), (-1, b.end_rays[1])):
                if sa[1] and sa[1] == sb[1]:
                    if a.lift[sa[0]][0] + k == b.lift[sb[0]][0]:
                        ks.add(k)
    return ks


# --------------------------------------------------------------------------
# arrangement faces on the torus


@dataclass
class Face:
    """One complement component of a curve arrangement on the torus."""

    witness: RatPoint
    curves: frozenset[int]


def _dir_less(d1: RatPoint, d2: RatPoint) -> bool:
    h1 = 0 if (d1[1] > 0 or (d1[1] == 0 and d1[0] > 0)) else 1
    h2 = 0 if (d2[1] > 0 or (d2[1] == 0 and d2[0] > 0)) else 1
    if h1 != h2:
        return h1 < h2
    return cross(d1, d2) > 0


def sort_directions(dirs: list) -> list:
    """Sort (direction, payload) pairs counterclockwise from the +x axis."""
    out = list(dirs)
    # insertion sort with the exact comparator; fans at a vertex are tiny
    for i in range(1, len(out)):
        j = i
        while j > 0 and _dir_less(out[j][0], out[j - 1][0]):
            out[j], out[j - 1] = out[j - 1], out[j]
            j -= 1
    return out


class _CurveTrace:
    """A closed curve of the arrangement with vertex params marked on it."""

    def __init__(self, curve: TorusCurve, label: int):
        self.curve = curve
        self.label = label
        self.path = curve.period_path()
        self.segs = curve.segments()
        self.n = len(self.segs)
        self.params: dict[Fraction, RatPoint] = {}

    def param_of(self, i: int, point: RatPoint) -> Fraction:
        s = self.segs[i]
        d = vsub(s.q, s.p)
        axis = 0 if d[0] != 0 else 1
        t = (point[axis] - s.p[axis]) / d[axis]
        return i + t

    def mark(self, param: Fraction, torus_pt: RatPoint):
        if param == self.n:
            param = Fraction(0)
        self.params[param] = torus_pt

    def point_at(self, param: Fraction) -> RatPoint:
        i = min(int(param), self.n - 1)
        t = param - i
        s = self.segs[i]
        return vadd(s.p, smul(t, vsub(s.q, s.p)))

    def direction_at(self, param: Fraction, forward: bool) -> RatPoint:
        i = int(param) % self.n
        t = param - int(param)
        if forward:
            s = self.segs[i]
            return vsub(s.q, s.p)
        else:
            if t == 0:
                idx = (i - 1) % self.n
            else:
                idx = i
            s = self.segs[idx]
            return vsub(s.p, s.q)

    def sub_path(self, p0: Fraction, p1: Fraction) -> list[RatPoint]:
        """Geometry of the arc from param p0 forward to param p1.

        Params are normalized to [0, n); when p1 <= p0 the arc wraps through
        the period end and continues into the next lifted period.
        """
        closing = (
            Fraction(self.curve.homology[0]),
            Fraction(self.curve.homology[1]),
        )
        wrapped = p1 <= p0
        target = p1 + (self.n if wrapped else 0)
        out = [self.point_at(p0)]
        k = int(p0) + 1
        while k < target:
            if k < self.n:
                out.append(self.path[k])
            else:
                out.append(vadd(self.path[k - self.n], closing))
            k += 1
        endp = self.point_at(p1)
        if wrapped:
            endp = vadd(endp, closing)
        out.append(endp)
        return [p for k, p in enumerate(out) if k == 0 or p != out[k - 1]]


def _scaffold_curves(curves: Sequence[TorusCurve]) -> list[TorusCurve]:
    """A vertical and a horizontal circle avoiding all vertices and all
    axis-parallel segments of the input, so the augmented arrangement is
    connected and all its faces are disks."""
    bad_x = set()
    bad_y = set()
    for c in curves:
        for p in c.period_path():
            bad_x.add(p[0] - math.floor(p[0]))
            bad_y.add(p[1] - math.floor(p[1]))
        for s in c.segments():
            if s.p[0] == s.q[0]:
                bad_x.add(s.p[0] - math.floor(s.p[0]))
            if s.p[1] == s.q[1]:
                bad_y.add(s.p[1] - math.floor(s.p[1]))

    def pick(bad: set[Fraction]) -> Fraction:
        den = 2
        while True:
            for num in range(1, den, 2):
                cand = Fraction(num, den)
                if cand not in bad:
                    return cand
            den *= 2

    alpha = pick(bad_x)
    beta = pick(bad_y)
    vert = TorusCurve([(alpha, Fraction(0)), (alpha, Fraction(1))])
    horiz = TorusCurve([(Fraction(0), beta), (Fraction(1), beta)])
    return [vert, horiz]


def curve_arrangement(curves: Sequence[TorusCurve]) -> "Arrangement":
    """The arrangement of the curve union on the torus, with its faces.

    A connecting scaffold (one vertical and one horizontal circle) is
    superimposed, the half-edge face cycles of the augmented arrangement (all
    disks) are traced, and faces are union-found across scaffold-only edges.
    Each face records which input curves bound it and an interior witness
    point.
    """
    curves = list(curves)
    return Arrangement(curves + _scaffold_curves(curves), len(curves))


def complement_components(curves: Sequence[TorusCurve]) -> list[Face]:
    """Faces of the arrangement of the curve union on the torus."""
    return curve_arrangement(curves).faces


class Arrangement:
    """Half-edge arrangement of closed curves on the torus.

    Curves with label >= n_input are scaffold; faces separated only by
    scaffold edges are merged into ``faces``.
    """

    def __init__(self, curves: Sequence[TorusCurve], n_input: int):
        self.n_input = n_input
        self.traces = [_CurveTrace(c, i) for i, c in enumerate(curves)]
        self._mark_vertices()
        self._build_edges()
        self._build_rotation()
        self._trace_faces()
        self.obstacles = SegmentSet(
            [
                Segment(ed["geom"][i], ed["geom"][i + 1])
                for ed in self.edges
                for i in range(len(ed["geom"]) - 1)
            ],
            wrap_x=True,
            wrap_y=True,
        )
        self.faces = self._merge_faces()

    def _mark_vertices(self):
        tr = self.traces
        self.vertices: dict[RatPoint, list] = {}
        for i in range(len(tr)):
            for j in range(i + 1, len(tr)):
                for v, si, sj, res in torus_pair_hits(tr[i].curve, tr[j].curve):
                    if isinstance(res, Overlap):
                        raise DegenerateOverlap(
                            f"curves {i} and {j} share a segment"
                        )
                    tp = torus_rep(res.point)
                    pi = tr[i].param_of(si, res.point)
                    w = (Fraction(v[0]), Fraction(v[1]))
                    pj = tr[j].param_of(sj, vsub(res.point, w))
                    tr[i].mark(pi, tp)
                    tr[j].mark(pj, tp)
                    self.vertices.setdefault(tp, [])
        if not self.vertices:
            raise DegenerateOverlap("arrangement has no vertices")

    def _build_edges(self):
        # edge: (trace, param_from, param_to, geometry); darts 2*e and 2*e+1
        self.edges = []
        for t in self.traces:
            if not t.params:
                raise DegenerateOverlap(
                    "a curve misses the scaffold; not a valid vertex set"
                )
            ps = sorted(t.params)
            for k, p0 in enumerate(ps):
                p1 = ps[(k + 1) % len(ps)]
                geom = t.sub_path(p0, p1 if k + 1 < len(ps) else p1)
                self.edges.append(
                    {
                        "trace": t,
                        "p0": p0,
                        "p1": p1,
                        "v0": t.params[p0],
                        "v1": t.params[p1],
                        "geom": geom,
                        "label": t.label,
                    }
                )

    def _build_rotation(self):
        # darts: index 2e (forward along curve), 2e+1 (backward)
        incid: dict[RatPoint, list] = {v: [] for v in self.vertices}
        for e, ed in enumerate(self.edges):
            t = ed["trace"]
            d_fwd = t.direction_at(ed["p0"], True)
            d_bwd = t.direction_at(ed["p1"], False)
            incid[ed["v0"]].append((d_fwd, 2 * e))
            incid[ed["v1"]].append((d_bwd, 2 * e + 1))
        self.next_ccw: dict[int, int] = {}
        self.dart_origin: dict[int, RatPoint] = {}
        for v, fan in incid.items():
            fan = sort_directions(fan)
            m = len(fan)
            for k in range(m):
                self.next_ccw[fan[k][1]] = fan[(k + 1) % m][1]
            for _, d in fan:
                self.dart_origin[d] = v

    def _dart_reverse(self, d: int) -> int:
        return d ^ 1

    def _trace_faces(self):
        # left-face traversal: successor of dart d is rotate_ccw(reverse(d))
        nxt = {d: self.next_ccw[self._dart_reverse(d)] for d in self.next_ccw}
        seen: set[int] = set()
        self.face_of_dart: dict[int, int] = {}
        self.face_walks: list[list[int]] = []
        for d0 in nxt:
            if d0 in seen:
                continue
            walk = []
            d = d0
            while d not in seen:
                seen.add(d)
                walk.append(d)
                self.face_of_dart[d] = len(self.face_walks)
                d = nxt[d]
            self.face_walks.append(walk)
        v = len(self.vertices)
        e = len(self.edges)
        f = len(self.face_walks)
        if v - e + f != 0:
            raise RuntimeError(
                f"euler check failed on augmented arrangement: {v}-{e}+{f}"
            )

    def _merge_faces(self) -> list[Face]:
        """Faces of the input curves: face walks united across scaffold
        edges.  ``walk_face[w]`` is the index of the face holding walk w."""
        parent = list(range(len(self.face_walks)))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(x, y):
            parent[find(x)] = find(y)

        for e, ed in enumerate(self.edges):
            if ed["label"] >= self.n_input:
                union(self.face_of_dart[2 * e], self.face_of_dart[2 * e + 1])
        groups: dict[int, list[int]] = {}
        for w in range(len(self.face_walks)):
            groups.setdefault(find(w), []).append(w)
        self.walk_face = [0] * len(self.face_walks)
        for fi, walks in enumerate(groups.values()):
            for w in walks:
                self.walk_face[w] = fi
        out = []
        for walks in groups.values():
            labels = set()
            for w in walks:
                for d in self.face_walks[w]:
                    ed = self.edges[d // 2]
                    if ed["label"] < self.n_input:
                        labels.add(ed["label"])
            out.append(
                Face(
                    witness=self._interior_witness(walks),
                    curves=frozenset(labels),
                )
            )
        return out

    def dart_geometry(self, d: int) -> list[RatPoint]:
        geom = self.edges[d // 2]["geom"]
        return geom if d % 2 == 0 else list(reversed(geom))

    def _interior_witness(self, walks: list[int]) -> RatPoint:
        # face orbits follow next_ccw(reverse(dart)), which walks the face to
        # the RIGHT of each dart; offset a dart midpoint to its right and
        # shrink until the probe segment stays clear of the arrangement
        for w in walks:
            for d in self.face_walks[w]:
                geom = self.dart_geometry(d)
                a, b = geom[0], geom[1]
                mid = smul(Fraction(1, 2), vadd(a, b))
                nrm = (b[1] - a[1], -(b[0] - a[0]))  # right normal, unscaled
                eps = Fraction(1, 8)
                for _ in range(60):
                    cand = vadd(mid, smul(eps, nrm))
                    if not self.obstacles.hits(Segment(mid, cand), allow=[mid]):
                        return torus_rep(cand)
                    eps /= 2
        raise RuntimeError("could not place an interior witness")

    def counts(self) -> tuple[int, int, int]:
        return len(self.vertices), len(self.edges), len(self.face_walks)
