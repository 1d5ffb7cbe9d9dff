"""Relative widths in annulus-like models, explicit shortest paths through
bigon-free channels, and local widths of self-similar germs at a puncture.

Width of a pair is the number of integer deck translates of one lift met by
the other; graph distance is width + 1.  Shortest paths are built by
repeatedly threading a new arc through the strip between the current arc
and its translate, avoiding the two extreme translates of the target.

Germs are restricted to the self-similar family: a tail g, Mg, M^2 g, ...
for a shared contraction M = lambda * R with R a Pythagorean rotation.
Angles are never computed; winding is tracked as exact signed crossings of
the positive x-axis.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .geom_core import (
    Overlap,
    PreparedSegments,
    RatPoint,
    Segment,
    contacts,
    cross,
    lattice_shifts,
    mat_apply,
    mat_mul,
    path_segments,
    polyline_self_intersects,
    vadd,
)
from .arc_graphs import _normalizer
from .curves_ops import _point_seg_dist2
from .routing import ON_OBSTACLE, SegmentSet, grid_node, grid_route, shortcut
from .surfaces import (
    INFINITE,
    AnnulusArc,
    ModelMismatch,
    SurfaceModel,
    TorusCurve,
    _CurveTrace,
    affine_curve,
    lift_translates_hit,
    shifts_meeting,
)


class InfiniteWidth(ValueError):
    pass


class DegenerateBigon(ValueError):
    pass


class ContractionMismatch(ValueError):
    pass


class NonGeneric(ValueError):
    pass


@dataclass(frozen=True)
class WidthResult:
    """K = {k : T^k(lift a) meets lift b} and its cardinality."""

    K: Union[tuple, str]
    width: Union[int, str]

    @staticmethod
    def from_set(ks) -> "WidthResult":
        K = tuple(sorted(ks))
        if K and K[-1] - K[0] != len(K) - 1:
            raise NonGeneric("translate-hit set is not an interval")
        return WidthResult(K=K, width=len(K))


# ------------------------------------------------------------ annulus pairs


def relative_width(a, b, model: Optional[SurfaceModel] = None) -> WidthResult:
    if isinstance(a, TorusCurve) and isinstance(b, TorusCurve):
        if model not in (None, SurfaceModel.TORUS):
            raise ModelMismatch("torus curves need the torus model")
        aa, bb = _torus_strip_arcs(a, b)
        pa, pb = PreparedSegments(path_segments(aa)), PreparedSegments(path_segments(bb))
        ks = shifts_meeting(pa, pb, lattice_shifts(pb.bounds, pa.bounds, wrap_y=False))
        return WidthResult.from_set(ks)
    if isinstance(a, AnnulusArc) and isinstance(b, AnnulusArc):
        if model is not None and (a.model is not model or b.model is not model):
            raise ModelMismatch(f"arcs are not in the {model} model")
        return WidthResult.from_set(lift_translates_hit(a, b))
    raise ModelMismatch("mixed or unsupported operand types")


def _cut_class(ha, hb):
    for u in range(-6, 7):
        for v in range(-6, 7):
            if math.gcd(u, v) != 1:
                continue
            if abs(u * ha[1] - v * ha[0]) == 1 and abs(u * hb[1] - v * hb[0]) == 1:
                return (u, v)
    raise NonGeneric("no common cut class for the two curves")


def _line_arc(curve: TorusCurve, y0: Fraction) -> Optional[list[RatPoint]]:
    """One period of the curve split where it crosses the line y = y0 mod 1,
    or None unless the crossing is unique and transverse."""
    tr = _CurveTrace(curve, 0)
    hits = []
    for i, s in enumerate(tr.segs):
        ys = sorted((s.p[1], s.q[1]))
        for j in range(math.ceil(ys[0] - y0), math.floor(ys[1] - y0) + 1):
            y = y0 + j
            if s.p[1] == y or s.q[1] == y:
                return None
            if ys[0] < y < ys[1]:
                t = (y - s.p[1]) / (s.q[1] - s.p[1])
                hits.append(i + t)
    if len(hits) != 1:
        return None
    arc = tr.sub_path(hits[0], hits[0])
    if arc[-1][1] - arc[0][1] == -1:
        arc = list(reversed(arc))
    if arc[-1][1] - arc[0][1] != 1:
        return None
    # normalize into the strip y0 <= y <= y0 + 1
    j = arc[0][1] - y0
    if j.denominator != 1:
        return None
    return [(p[0], p[1] - j) for p in arc]


def _torus_strip_arcs(a: TorusCurve, b: TorusCurve):
    """Lifts of a and b in the annulus obtained by cutting along a straight
    curve crossing each of them exactly once."""
    c = _cut_class(a.homology, b.homology)
    n = _normalizer(c)
    na, nb = affine_curve(a.lift, n), affine_curve(b.lift, n)
    for den in (7, 11, 13, 17, 19, 23, 29):
        for num in range(1, den):
            y0 = Fraction(num, den)
            aa = _line_arc(na, y0)
            bb = _line_arc(nb, y0)
            if aa is not None and bb is not None:
                return aa, bb
    raise NonGeneric("no cut position crossing both curves once")


# ------------------------------------------------------- strip threading


def _inside_strip(p: RatPoint, wall: Sequence[RatPoint]) -> bool:
    """Is p strictly inside the strip between the wall, an arc between the
    boundary lines, and its (1, 0) translate?

    The wall is run upward, so the strip lies on the left of wall + (1, 0)
    and on the right of the wall.  A rightward ray of length the wall's
    x-span + 1 then meets first either wall + (1, 0) from its left side or
    the wall from its right side exactly when p is inside."""
    if wall[0][1] > wall[-1][1]:
        wall = wall[::-1]
    if not wall[0][1] < p[1] < wall[-1][1]:
        return False
    xs = [x for x, _ in wall]
    walls = SegmentSet(path_segments(wall), wrap_x=True)
    hit = walls.first_hit(p, max(xs) - min(xs) + 1, 0)
    if hit is None or hit is ON_OBSTACLE:
        return False
    (i, _), k = hit
    s = walls.segs[k]
    return i == (1 if s.q[1] > s.p[1] else 0)


def _thread_strip(
    wall: Sequence[RatPoint],
    obstacles: Sequence[Sequence[RatPoint]],
    waypoint: Optional[RatPoint] = None,
) -> Optional[list[RatPoint]]:
    """A PL arc from y=0 to y=1 strictly inside the strip between the wall
    and its (1,0) translate, avoiding the obstacle polylines."""
    right = [vadd(p, (Fraction(1), Fraction(0))) for p in wall]
    blockers = SegmentSet(
        [s for path in (wall, right, *obstacles) for s in path_segments(path)]
    )
    for n in (16, 32, 64):
        # salts shift the grid off any wall vertices left by earlier
        # threading rounds at the same resolution
        for salt in (5, 7, 11, 13):
            got = _thread_grid(wall, blockers, n, waypoint, salt)
            if got is not None:
                got = shortcut(got, blockers.hits)
                if not polyline_self_intersects(got):
                    return got
    return None


def _thread_grid(wall, blockers, n, waypoint, salt):
    """One grid round of ``_thread_strip``: stub, route, stub.

    The walls are obstacles, so the grid router never leaves the strip once
    it starts inside; a start or goal is a node with a clear stub to the
    boundary window between the wall's end and its translate."""
    xs = [p[0] for p in wall]
    x_lo = math.floor(min(xs)) - 1
    cols = (math.ceil(max(xs)) + 2 - x_lo) * n + 1

    def node(i, j):
        return grid_node(i, j, n, salt, x_lo)

    # entry stubs connect to the boundary circles; an obstacle endpoint on
    # a circle can pinch the window off the grid, so slanted stubs aiming
    # between blocker touchpoints are tried as well
    # a slanted wall can leave the boundary window without any grid node
    # directly above it, so stubs may reach a few rows into the grid
    mids0 = _boundary_mids(blockers, Fraction(0))
    mids1 = _boundary_mids(blockers, Fraction(1))
    foot = {p[1]: p[0] for p in (wall[0], wall[-1])}
    starts = []
    goals = set()
    stub = {}
    depth = min(4, n - 1)
    for i in range(cols):
        for d in range(depth):
            x = _stub_x(node(i, d), Fraction(0), foot[0], mids0, blockers, n, d)
            if x is not None:
                starts.append((i, d))
                stub[(i, d)] = x
            x = _stub_x(node(i, n - 1 - d), Fraction(1), foot[1], mids1, blockers, n, d)
            if x is not None:
                goals.add((i, n - 1 - d))
                stub[(i, n - 1 - d)] = x
    if not starts or not goals:
        return None

    if waypoint is not None:
        wi = round((waypoint[0] - x_lo) * n)
        wj = round(waypoint[1] * n)
        mid = next(
            (
                (i, j)
                for i in range(wi - 2, wi + 3)
                for j in range(wj - 2, wj + 3)
                if 0 <= i < cols and 0 <= j < n and _inside_strip(node(i, j), wall)
            ),
            None,
        )
        if mid is None:
            return None
        first = grid_route(blockers, n, starts, {mid}, salt, x_lo)
        if first is None:
            return None
        second = grid_route(blockers, n, [mid], goals, salt, x_lo)
        if second is None or set(first[:-1]) & set(second[1:]):
            return None
        cells = first + second[1:]
    else:
        cells = grid_route(blockers, n, starts, goals, salt, x_lo)
        if cells is None:
            return None
    pts = [node(*c) for c in cells]
    return [(stub[cells[0]], Fraction(0))] + pts + [(stub[cells[-1]], Fraction(1))]


def _boundary_mids(blockers: SegmentSet, y):
    xs = set()
    for s in blockers.segs:
        ya, yb = s.p[1], s.q[1]
        if ya == y:
            xs.add(s.p[0])
        if yb == y:
            xs.add(s.q[0])
        if (ya - y) * (yb - y) < 0:
            t = (y - ya) / (yb - ya)
            xs.add(s.p[0] + t * (s.q[0] - s.p[0]))
    xs = sorted(xs)
    return [(u + v) / 2 for u, v in zip(xs, xs[1:])]


def _stub_x(p, y, lo, mids, blockers, n, depth):
    """The foot on the line y of a clear stub from p, inside the window
    lo < x < lo + 1: straight across, or aimed at a blocker gap in reach."""
    reach = Fraction(8 * (depth + 1), n)
    cands = [p[0]] + [m for m in mids if abs(m - p[0]) <= reach]
    for x in cands:
        if lo < x < lo + 1 and not blockers.hits(Segment(p, (x, y))):
            return x
    return None


def _check_compact(a, b):
    for u in (a, b):
        if not isinstance(u, AnnulusArc) or u.model is not SurfaceModel.COMPACT_ANNULUS:
            raise ModelMismatch("explicit paths need compact-annulus arcs")


def rand_neighbor(a: AnnulusArc, rng: random.Random) -> AnnulusArc:
    """A random arc disjoint from a: threaded through the strip between a
    and its translate via a random interior waypoint."""
    _check_compact(a, a)
    xs = [p[0] for p in a.lift]
    for _ in range(20):
        wp = (
            min(xs) + Fraction(rng.randrange(0, 33), 16),
            Fraction(rng.randrange(1, 16), 16),
        )
        if not _inside_strip(wp, list(a.lift)):
            continue
        got = _thread_strip(list(a.lift), [], waypoint=wp)
        if got is not None:
            return AnnulusArc(SurfaceModel.COMPACT_ANNULUS, got)
    raise DegenerateBigon("no channel through the strip")


def distance_path(a: AnnulusArc, b: AnnulusArc) -> list[AnnulusArc]:
    """Arcs a = v0, ..., v_{w+1} = b with consecutive entries disjoint,
    realizing distance width + 1."""
    _check_compact(a, b)
    res = relative_width(a, b)
    if res.width == INFINITE:
        raise InfiniteWidth("no finite path exists")
    path = [a]
    cur = a
    w = res.width
    K = res.K
    while w > 0:
        # either extreme translate of b may be dropped; one side can be
        # geometrically pinched against the wall, so try both
        step = None
        for lo_k, hi_k in ((K[0] - 1, K[-1]), (K[0], K[-1] + 1)):
            if w > 1 and _obstacles_collide(b.lift, lo_k, hi_k, list(cur.lift)):
                continue
            obs = [
                [vadd(p, (Fraction(-lo_k), Fraction(0))) for p in b.lift],
                [vadd(p, (Fraction(-hi_k), Fraction(0))) for p in b.lift],
            ]
            got = _thread_strip(list(cur.lift), obs)
            if got is None:
                continue
            v = AnnulusArc(SurfaceModel.COMPACT_ANNULUS, got)
            if lift_translates_hit(v, cur):
                continue
            nxt = relative_width(v, b)
            if nxt.width == w - 1:
                step = (v, nxt)
                break
        if step is None:
            raise DegenerateBigon("no channel through the strip")
        v, nxt = step
        path.append(v)
        cur, w, K = v, nxt.width, nxt.K
    path.append(b)
    return path


def _obstacles_collide(lift, lo_k: int, hi_k: int, wall) -> bool:
    """Do the translates of lift by (-lo_k, 0) and (-hi_k, 0) meet inside
    the strip along wall?"""
    segs = path_segments(lift)
    back = (Fraction(-lo_k), Fraction(0))
    for _, _, _, res in contacts(segs, segs, [(lo_k - hi_k, 0)]):
        if isinstance(res, Overlap):
            return True
        if _inside_strip(vadd(res.point, back), wall):
            return True
    return False


# ------------------------------------------------------------------- germs


@dataclass(frozen=True)
class GermSpec:
    """A self-similar germ at the origin: after an ignored prefix, the tail
    is g, Mg, M^2 g, ... for the contraction M = lam * rot."""

    prefix: tuple
    generator: tuple
    lam: Fraction
    rot: tuple

    def __init__(self, prefix, generator, lam, rot):
        prefix = tuple((Fraction(x), Fraction(y)) for x, y in prefix)
        generator = tuple((Fraction(x), Fraction(y)) for x, y in generator)
        lam = Fraction(lam)
        rot = (Fraction(rot[0]), Fraction(rot[1]))
        if not 0 < lam < 1:
            raise ValueError("lambda must be in (0,1)")
        if rot[0] ** 2 + rot[1] ** 2 != 1:
            raise ValueError("rotation must be Pythagorean")
        if len(generator) < 2:
            raise ValueError("generator needs at least two points")
        m = _contraction(lam, rot)
        if mat_apply(m, generator[0]) != generator[-1]:
            raise ValueError("generator does not chain: M start != end")
        if any(p == (0, 0) for p in generator):
            raise ValueError("generator must avoid the origin")
        object.__setattr__(self, "prefix", prefix)
        object.__setattr__(self, "generator", generator)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "rot", rot)

    def matrix(self):
        return _contraction(self.lam, self.rot)

    def copy_path(self, i: int) -> list[RatPoint]:
        m = _mat_pow(self.matrix(), i)
        return [mat_apply(m, p) for p in self.generator]

    def to_json(self):
        def pts(path):
            return [[str(p[0]), str(p[1])] for p in path]

        return {
            "prefix": pts(self.prefix),
            "generator": pts(self.generator),
            "lambda": str(self.lam),
            "rot": [str(self.rot[0]), str(self.rot[1])],
        }

    @staticmethod
    def from_json(data) -> "GermSpec":
        if not isinstance(data["rot"], list) or len(data["rot"]) != 2:
            raise ValueError("rot must be a list of two entries")
        return GermSpec(
            prefix=[(Fraction(x), Fraction(y)) for x, y in data["prefix"]],
            generator=[(Fraction(x), Fraction(y)) for x, y in data["generator"]],
            lam=Fraction(data["lambda"]),
            rot=(Fraction(data["rot"][0]), Fraction(data["rot"][1])),
        )


@dataclass(frozen=True)
class GermWidth:
    width: Union[int, str]
    comparable: bool


def _contraction(lam, rot):
    c, s = rot
    return ((lam * c, -lam * s), (lam * s, lam * c))


def _mat_pow(m, k: int):
    out = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    base = m
    if k < 0:
        det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
        base = (
            (m[1][1] / det, -m[0][1] / det),
            (-m[1][0] / det, m[0][0] / det),
        )
        k = -k
    for _ in range(k):
        out = mat_mul(out, base)
    return out


def _ray_crossings(path: Sequence[RatPoint]) -> int:
    """Signed crossings of the positive x-axis; winding in full turns."""
    total = 0
    for p in path:
        if p[1] == 0 and p[0] > 0:
            raise NonGeneric("path vertex on the reference ray")
    for i in range(len(path) - 1):
        p, q = path[i], path[i + 1]
        if p[1] == 0 or q[1] == 0:
            if (p[1] == 0 and p[0] > 0) or (q[1] == 0 and q[0] > 0):
                raise NonGeneric("path vertex on the reference ray")
            continue
        if (p[1] > 0) == (q[1] > 0):
            continue
        t = p[1] / (p[1] - q[1])
        x = p[0] + t * (q[0] - p[0])
        if x == 0:
            raise NonGeneric("path through the origin")
        if x > 0:
            total += 1 if q[1] > 0 else -1
    return total


def _partial_path(path: Sequence[RatPoint], seg_i: int, point: RatPoint):
    return list(path[: seg_i + 1]) + [point]


def _wrap(u: RatPoint, rot) -> int:
    """1 if rotating direction u by the rotation passes the positive x-axis
    counterclockwise-wise, else 0 (clockwise rotations count negatively)."""
    c, s = rot
    if s == 0 and c == 1:
        return 0
    if s < 0:
        # mirror across the x-axis turns a clockwise pass into a
        # counterclockwise one; clockwise passes count -1
        return -_wrap((u[0], -u[1]), (c, -s))
    v = (c * u[0] - s * u[1], s * u[0] + c * u[1])
    e = (Fraction(1), Fraction(0))
    for w in (u, v):
        if w[1] == 0 and w[0] > 0:
            raise NonGeneric("germ start direction on the reference ray")
    if s == 0:
        # half turn
        return 1 if cross(u, e) > 0 else 0
    # sin > 0 means the angle is in (0, pi): pass iff e sits strictly
    # inside the counterclockwise sector from u to v
    return 1 if cross(u, e) > 0 and cross(e, v) > 0 else 0


def _per_period_turns(g: GermSpec) -> Fraction:
    """Winding contributed by one generator copy, in full turns, relative to
    the shared rotation angle (so differences between germs are integers)."""
    return _ray_crossings(list(g.generator)) - _wrap(g.generator[0], g.rot)


def _copy_radii(path) -> tuple:
    lo = None
    hi = max(p[0] ** 2 + p[1] ** 2 for p in path)
    for s in path_segments(path):
        d = _point_seg_dist2((Fraction(0), Fraction(0)), s)
        lo = d if lo is None else min(lo, d)
    return lo, hi


def _copy_pair_hits(p1, p2):
    """Transverse interior intersections of two copy polylines; exact."""
    out = []
    for _, i, j, res in contacts(path_segments(p1), path_segments(p2)):
        if isinstance(res, Overlap):
            raise NonGeneric("germ tails overlap")
        if not (res.interior1 and res.interior2):
            raise NonGeneric("germ tails meet at a vertex")
        out.append((i, j, res.point))
    return out


def germ_width(g1: GermSpec, g2: GermSpec) -> GermWidth:
    """Local relative width of two germs sharing a contraction.

    Tail-copy intersections yield integer winding discrepancies; the copy
    index shift acts on them by the per-period difference Delta, so the
    width is infinite exactly when Delta is nonzero and any copies meet."""
    if (g1.lam, g1.rot) != (g2.lam, g2.rot):
        raise ContractionMismatch("germs must share the contraction")
    delta = _per_period_turns(g1) - _per_period_turns(g2)
    r1lo, r1hi = _copy_radii(list(g1.generator))
    r2lo, r2hi = _copy_radii(list(g2.generator))
    lam2 = g1.lam ** 2
    ks = set()
    any_hit = False
    d = 0
    while r1hi * lam2**d >= r2lo:
        any_hit, ks = _collect_d(g1, g2, d, any_hit, ks)
        d += 1
    d = -1
    while r1lo * lam2**d <= r2hi:
        any_hit, ks = _collect_d(g1, g2, d, any_hit, ks)
        d -= 1
    if any_hit and delta != 0:
        return GermWidth(width=INFINITE, comparable=False)
    return GermWidth(width=len(ks), comparable=True)


def _collect_d(g1, g2, d, any_hit, ks):
    i, j = (d, 0) if d >= 0 else (0, -d)
    p1 = g1.copy_path(i)
    p2 = g2.copy_path(j)
    pre1 = sum(_ray_crossings(g1.copy_path(t)) for t in range(i))
    pre2 = sum(_ray_crossings(g2.copy_path(t)) for t in range(j))
    for si, sj, pt in _copy_pair_hits(p1, p2):
        any_hit = True
        c1 = pre1 + _ray_crossings(_partial_path(p1, si, pt))
        c2 = pre2 + _ray_crossings(_partial_path(p2, sj, pt))
        ks = ks | {c1 - c2}
    return any_hit, ks
