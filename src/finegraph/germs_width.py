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
    Empty,
    Overlap,
    RatPoint,
    Segment,
    bbox_candidate_pairs,
    cross,
    mat_apply,
    path_segments,
    polyline_self_intersects,
    segment_intersection,
    shift_segment,
    vadd,
)
from .arc_graphs import _map_curve, _normalizer
from .curves_ops import _point_seg_dist2
from .routing import SegmentSet
from .surfaces import (
    INFINITE,
    AnnulusArc,
    ModelMismatch,
    SurfaceModel,
    TorusCurve,
    _CurveTrace,
    lift_translates_hit,
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
        return WidthResult.from_set(_shift_hits(aa, bb))
    if isinstance(a, AnnulusArc) and isinstance(b, AnnulusArc):
        if model is not None and (a.model is not model or b.model is not model):
            raise ModelMismatch(f"arcs are not in the {model} model")
        return WidthResult.from_set(lift_translates_hit(a, b))
    raise ModelMismatch("mixed or unsupported operand types")


def _shift_hits(u: Sequence[RatPoint], v: Sequence[RatPoint]) -> set:
    """{k : u + (k,0) meets v} for two lifted strip arcs."""
    xs_u = [p[0] for p in u]
    xs_v = [p[0] for p in v]
    lo = math.ceil(min(xs_v) - max(xs_u))
    hi = math.floor(max(xs_v) - min(xs_u))
    su, sv = path_segments(u), path_segments(v)
    out = set()
    shifts = [(k, 0) for k in range(lo, hi + 1)]
    for w, j, i in bbox_candidate_pairs(sv, su, shifts):
        if w[0] in out:
            continue
        if not isinstance(segment_intersection(shift_segment(su[i], w), sv[j]), Empty):
            out.add(w[0])
    return out


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
    na, nb = _map_curve(n, a), _map_curve(n, b)
    for den in (7, 11, 13, 17, 19, 23, 29):
        for num in range(1, den):
            y0 = Fraction(num, den)
            aa = _line_arc(na, y0)
            bb = _line_arc(nb, y0)
            if aa is not None and bb is not None:
                return aa, bb
    raise NonGeneric("no cut position crossing both curves once")


# ------------------------------------------------------- strip threading


def _h_ray_parity(p: RatPoint, wall: Sequence[RatPoint], k: int) -> Optional[int]:
    """Parity of crossings of the leftward horizontal ray from p with the
    wall shifted by (k, 0); None on a degenerate hit."""
    count = 0
    for s in path_segments(wall):
        py = p[1]
        y0, y1 = s.p[1] + 0, s.q[1] + 0
        if py == y0 or py == y1:
            return None
        if not (min(y0, y1) < py < max(y0, y1)):
            continue
        t = (py - y0) / (y1 - y0)
        x = s.p[0] + t * (s.q[0] - s.p[0]) + k
        if x == p[0]:
            return None
        if x < p[0]:
            count += 1
    return count % 2


def _inside_strip(p: RatPoint, wall: Sequence[RatPoint]) -> bool:
    r0 = _h_ray_parity(p, wall, 0)
    r1 = _h_ray_parity(p, wall, 1)
    if r0 is None or r1 is None:
        return False
    return r0 == 1 and r1 == 0


def _thread_strip(
    wall: Sequence[RatPoint],
    obstacles: Sequence[Sequence[RatPoint]],
    n: int = 16,
    max_n: int = 64,
    waypoint: Optional[RatPoint] = None,
) -> Optional[list[RatPoint]]:
    """A PL arc from y=0 to y=1 strictly inside the strip between the wall
    and its (1,0) translate, avoiding the obstacle polylines."""
    right = [vadd(p, (Fraction(1), Fraction(0))) for p in wall]
    blockers = SegmentSet(
        [s for path in (wall, right, *obstacles) for s in path_segments(path)]
    )
    while n <= max_n:
        # salts shift the grid off any wall vertices left by earlier
        # threading rounds at the same resolution
        for salt in (5, 7, 11, 13):
            got = _thread_grid(wall, blockers, n, waypoint, salt)
            if got is not None:
                got = _slim(got, blockers)
                if _path_simple(got):
                    return got
        n *= 2
    return None


def _path_simple(path: list[RatPoint]) -> bool:
    pts = [p for k, p in enumerate(path) if k == 0 or p != path[k - 1]]
    return not polyline_self_intersects(pts)


def _slim(path: list[RatPoint], blockers: SegmentSet) -> list[RatPoint]:
    """Greedy straightening: drop interior vertices whose bridging segment
    stays clear of walls and obstacles."""
    out = list(path)
    changed = True
    while changed:
        changed = False
        i = 1
        while i < len(out) - 1:
            if not blockers.hits(Segment(out[i - 1], out[i + 1])):
                del out[i]
                changed = True
            else:
                i += 1
    return out


def _thread_grid(wall, blockers, n, waypoint, salt):
    xs = [p[0] for p in wall]
    x_lo = math.floor(min(xs)) - 1
    x_hi = math.ceil(max(xs)) + 2
    cols = (x_hi - x_lo) * n + 1

    def node(i, j):
        return (
            x_lo + Fraction(i, n) + Fraction(1, (salt - 2) * n),
            Fraction(j, n) + Fraction(1, salt * n),
        )

    free = {}

    def ok(i, j):
        if not (0 <= i < cols and 0 <= j < n):
            return False
        if (i, j) not in free:
            free[(i, j)] = _inside_strip(node(i, j), wall)
        return free[(i, j)]

    # entry stubs connect to the boundary circles; an obstacle endpoint on
    # a circle can pinch the window off the grid, so slanted stubs aiming
    # between blocker touchpoints are tried as well
    # a slanted wall can leave the boundary window without any grid node
    # directly above it, so stubs may reach a few rows into the grid
    mids0 = _boundary_mids(blockers, Fraction(0))
    mids1 = _boundary_mids(blockers, Fraction(1))
    starts = []
    goals = {}
    stub = {}
    depth = min(4, n - 1)
    for i in range(cols):
        for d in range(depth):
            if ok(i, d):
                p = node(i, d)
                x = _stub_x(p, Fraction(0), mids0, blockers, n, d)
                if x is not None:
                    starts.append((i, d))
                    stub[(i, d)] = x
            if ok(i, n - 1 - d):
                p = node(i, n - 1 - d)
                x = _stub_x(p, Fraction(1), mids1, blockers, n, d)
                if x is not None:
                    goals[(i, n - 1 - d)] = True
                    stub[(i, n - 1 - d)] = x
    if not starts or not goals:
        return None

    def bfs(srcs, targets):
        prev = {s: None for s in srcs}
        queue = list(srcs)

        def step(src, nxt):
            if not ok(*nxt):
                return False
            if nxt in prev:
                return True
            if blockers.hits(Segment(node(*src), node(*nxt))):
                return False
            prev[nxt] = src
            queue.append(nxt)
            return True

        while queue:
            cur = queue.pop(0)
            if cur in targets:
                out = []
                while cur is not None:
                    out.append(cur)
                    cur = prev[cur]
                return list(reversed(out))
            ci, cj = cur
            step(cur, (ci + 1, cj))
            step(cur, (ci - 1, cj))
            for dj in (1, -1):
                if step(cur, (ci, cj + dj)):
                    continue
                # a thin corridor between two slanted blockers can shift by
                # several columns per row; hop along it when straight up or
                # down is blocked
                for d in range(1, 9):
                    if step(cur, (ci + d, cj + dj)) or step(cur, (ci - d, cj + dj)):
                        break
        return None

    if waypoint is not None:
        wi = round((waypoint[0] - x_lo) * n)
        wj = round(waypoint[1] * n)
        mid = None
        for di in range(-2, 3):
            for dj in range(-2, 3):
                if ok(wi + di, wj + dj):
                    mid = (wi + di, wj + dj)
                    break
            if mid:
                break
        if mid is None:
            return None
        first = bfs(starts, {mid: True})
        if first is None:
            return None
        second = bfs([mid], goals)
        if second is None or set(first[:-1]) & set(second[1:]):
            return None
        cells = first + second[1:]
    else:
        cells = bfs(starts, goals)
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


def _stub_x(p, y, mids, blockers, n, depth=0):
    reach = Fraction(8 * (depth + 1), n)
    cands = [p[0]] + [m for m in mids if abs(m - p[0]) <= reach]
    for x in cands:
        if not blockers.hits(Segment(p, (x, y))):
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
    for v, i, j in bbox_candidate_pairs(segs, segs, [(lo_k - hi_k, 0)]):
        res = segment_intersection(segs[i], shift_segment(segs[j], v))
        if isinstance(res, Overlap):
            return True
        if isinstance(res, Empty):
            continue
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
        out = (
            (
                out[0][0] * base[0][0] + out[0][1] * base[1][0],
                out[0][0] * base[0][1] + out[0][1] * base[1][1],
            ),
            (
                out[1][0] * base[0][0] + out[1][1] * base[1][0],
                out[1][0] * base[0][1] + out[1][1] * base[1][1],
            ),
        )
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
    s1, s2 = path_segments(p1), path_segments(p2)
    out = []
    for _, i, j in bbox_candidate_pairs(s1, s2):
        res = segment_intersection(s1[i], s2[j])
        if isinstance(res, Empty):
            continue
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
