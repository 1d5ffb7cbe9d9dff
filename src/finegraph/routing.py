"""Obstacle sets and grid routing in the complement of PL obstacles.

``SegmentSet`` answers contact queries against obstacle segments repeated
under the torus or annulus translations.  It keeps its obstacles as one
``geom_core.PreparedSegments`` and runs each probe through the prefilter of
``geom_core``: the shifts of ``lattice_shifts`` and the candidate loop
``probe_candidates``.  ``surely_free`` is the float verdict alone; ``hits``
lets ``surely_crossing`` settle clear crossings and decides every other
candidate exactly.  ``first_hit`` is the one ray caster: the obstacle copy
that an axis-parallel ray meets first, decided in ``Fraction``s under one tie
rule.  The ray is read just past its start on the other axis, so a segment
counts when its span on that axis holds the start's coordinate, lower end
included and upper end excluded; segments parallel to the ray never count,
and of two segments met at the same distance the one that rises less along
the ray comes first.  Face location, the cut-surface chart and strip
membership all place points with it.

``grid_route`` is the one grid router: a BFS on a rational grid offset off
the lattice, whose cells wrap along the axes where the obstacles wrap.  A
grid edge is accepted only when the float ``surely_free`` test proves it
clear by more than the rounding margin.  The float node coordinates carry a
few roundings of their own, far below the 1e-9 margin, so every accepted
edge is clear at the exact nodes too.  It has two callers: ``torus_route``
on the torus, which tests only the segments attaching the endpoints to the
grid and the shortcuts exactly, and ``germs_width``'s strip threading
between an annulus arc and its translate, which adds stubs to the boundary
circles.  Every result is an exact PL path whose segments provably avoid
the obstacles.
"""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction
from typing import Callable, Container, Iterable, Optional, Sequence

from .geom_core import (
    Empty,
    PreparedSegments,
    RatPoint,
    Segment,
    float_box,
    lattice_shifts,
    probe_candidates,
    segment_intersection,
    shift_segment,
    surely_crossing,
    vadd,
)


# what ``SegmentSet.first_hit`` returns for a ray that starts on an obstacle
ON_OBSTACLE = "on obstacle"


class SegmentSet:
    """Obstacle segments, prepared once for the float prefilter.

    ``wrap_x``/``wrap_y`` mark translation lattice directions under which the
    obstacles repeat ((1,0),(0,1) for torus curves, (1,0) for annulus lifts,
    none for plain planar obstacles).  A query runs the probe through
    ``probe_candidates`` under each shift of ``lattice_shifts``; sets hold a
    few dozen segments and most are queried only a few times, so no spatial
    index is built."""

    def __init__(self, segs: Sequence[Segment], wrap_x: bool = False, wrap_y: bool = False):
        self.segs = PreparedSegments(segs)
        self.wrap_x = wrap_x
        self.wrap_y = wrap_y

    def surely_free(self, px, py, qx, qy) -> bool:
        """True only when the float segment provably misses every obstacle
        copy; anything within the rounding margin counts as blocked."""
        box = float_box(px, py, qx, qy)
        shifts = lattice_shifts(box, self.segs.bounds, self.wrap_x, self.wrap_y)
        return next(probe_candidates(self.segs, box, (px, py, qx, qy), shifts), None) is None

    def hits(self, seg: Segment, allow: Iterable[RatPoint] = ()) -> bool:
        """Does seg touch any obstacle (modulo wraps)?  Contacts exactly at
        points listed in ``allow`` are ignored."""
        allow = set(allow)
        px, py = float(seg.p[0]), float(seg.p[1])
        qx, qy = float(seg.q[0]), float(seg.q[1])
        box = float_box(px, py, qx, qy)
        shifts = lattice_shifts(box, self.segs.bounds, self.wrap_x, self.wrap_y)
        moved_by, floats = None, self.segs.floats
        for v, k in probe_candidates(self.segs, box, (px, py, qx, qy), shifts):
            i, j = v
            if not allow and surely_crossing(
                px - i, py - j, qx - i, qy - j, *floats[k], max(abs(i), abs(j))
            ):
                return True
            if moved_by != v:
                moved_by, moved = v, shift_segment(seg, (-i, -j))
            res = segment_intersection(moved, self.segs[k])
            if isinstance(res, Empty):
                continue
            if (
                hasattr(res, "point")
                and vadd(res.point, (Fraction(i), Fraction(j))) in allow
            ):
                continue
            return True
        return False

    def first_hit(self, p: RatPoint, reach, axis: int):
        """(v, k) for the copy ``segs[k] + v`` that the ray from p along
        +axis, of length reach, meets first under the tie rule of the module
        docstring; ``ON_OBSTACLE`` when p lies on an obstacle copy, None when
        the ray meets none.  Ties left by the rule keep the candidate order."""
        end = (p[0] + reach, p[1]) if axis == 0 else (p[0], p[1] + reach)
        f = (float(p[0]), float(p[1]), float(end[0]), float(end[1]))
        box = float_box(*f)
        shifts = lattice_shifts(box, self.segs.bounds, self.wrap_x, self.wrap_y)
        b = 1 - axis
        best = None
        for v, k in probe_candidates(self.segs, box, f, shifts):
            s = self.segs[k]
            q = (p[0] - v[0], p[1] - v[1])
            lo, hi = (s.p, s.q) if s.p[b] <= s.q[b] else (s.q, s.p)
            if lo[b] == hi[b]:
                if q[b] == lo[b] and min(lo[axis], hi[axis]) <= q[axis] <= max(lo[axis], hi[axis]):
                    return ON_OBSTACLE
                continue
            if not lo[b] <= q[b] <= hi[b]:
                continue
            rise = (hi[axis] - lo[axis]) / (hi[b] - lo[b])
            d = lo[axis] + (q[b] - lo[b]) * rise - q[axis]
            if d == 0:
                return ON_OBSTACLE
            if q[b] < hi[b] and 0 < d <= reach and (best is None or (d, rise) < best[0]):
                best = ((d, rise), v, k)
        return None if best is None else best[1:]


def shortcut(
    path: list[RatPoint], blocked: Callable[[Segment], bool]
) -> list[RatPoint]:
    """Greedy removal of interior vertices while the direct segment is free."""
    out = list(path)
    changed = True
    while changed and len(out) > 2:
        changed = False
        i = 0
        while i + 2 < len(out):
            if out[i] == out[i + 2]:
                del out[i + 1 : i + 3]
                changed = True
                continue
            if not blocked(Segment(out[i], out[i + 2])):
                del out[i + 1]
                changed = True
            else:
                i += 1
    return out


def grid_node(i: int, j: int, n: int, salt: int = 5, x0: int = 0) -> RatPoint:
    """Node (i, j) of the routing grid of step 1/n, offset off the lattice
    by (1/(salt-2), 1/salt) of a step and moved right by x0."""
    return (x0 + (i + Fraction(1, salt - 2)) / n, (j + Fraction(1, salt)) / n)


def grid_route(
    obstacles: SegmentSet,
    n: int,
    starts: Sequence[tuple[int, int]],
    goals: Container[tuple[int, int]],
    salt: int = 5,
    x0: int = 0,
) -> Optional[list[tuple[int, int]]]:
    """BFS on the grid of ``grid_node`` from the start cells to the first goal
    reached; returns the cells along the way, unwrapped, or None.

    Cell keys wrap modulo n along the axes where the obstacles wrap; where
    y does not wrap, rows stay in 0 <= j < n.  Steps go +x, -x, then up and
    down; when a vertical step is blocked, hops of 1 to 8 columns (+d before
    -d) follow a corridor that shifts sideways.  A step to an unvisited cell
    is taken only when ``surely_free`` proves its float segment clear."""
    wx, wy = obstacles.wrap_x, obstacles.wrap_y
    ox, oy = 1.0 / (salt - 2), 1.0 / salt

    def key(i, j):
        return (i % n if wx else i, j % n if wy else j)

    prev: dict[tuple[int, int], Optional[tuple[int, int]]] = {}
    raw: dict[tuple[int, int], tuple[int, int]] = {}
    dq = deque()
    for cell in starts:
        k = key(*cell)
        if k not in prev:
            prev[k] = None
            raw[k] = cell
            dq.append(k)

    def step(cur, di, dj) -> bool:
        ri, rj = raw[cur][0] + di, raw[cur][1] + dj
        if not (wy or 0 <= rj < n):
            return False
        nxt = key(ri, rj)
        if nxt in prev:
            return True
        ci, cj = cur
        if not obstacles.surely_free(
            x0 + (ci + ox) / n, (cj + oy) / n,
            x0 + (ci + di + ox) / n, (cj + dj + oy) / n,
        ):
            return False
        prev[nxt] = cur
        raw[nxt] = (ri, rj)
        dq.append(nxt)
        return True

    while dq:
        cur = dq.popleft()
        if cur in goals:
            cells = []
            while cur is not None:
                cells.append(raw[cur])
                cur = prev[cur]
            return cells[::-1]
        step(cur, 1, 0)
        step(cur, -1, 0)
        for dj in (1, -1):
            if step(cur, 0, dj):
                continue
            for d in range(1, 9):
                if step(cur, d, dj) or step(cur, -d, dj):
                    break
    return None


def torus_route(
    obstacles: SegmentSet, start: RatPoint, end: RatPoint
) -> Optional[list[RatPoint]]:
    """A PL path from start to some integer translate of end avoiding the
    obstacles, found on torus grids of step 1/16, 1/32 and 1/64.  Returns
    lifted coordinates starting exactly at ``start``; None if no grid gave
    a route."""
    if start != end and not obstacles.hits(Segment(start, end), allow=[start, end]):
        return [start, end]
    for n in (16, 32, 64):
        starts = _attach(obstacles, start, n)
        end_lift = {key: q for key, _, q in _attach(obstacles, end, n)}
        if not starts or not end_lift:
            continue
        cells = grid_route(obstacles, n, [ij for _, ij, _ in starts], end_lift)
        if cells is None:
            continue
        chain = [grid_node(i, j, n) for i, j in cells]
        # the end attach was computed in end's own frame; realign by the
        # integer vector separating the two lifts of the goal node
        i, j = cells[-1]
        q = end_lift[(i % n, j % n)]
        end_pt = (end[0] + chain[-1][0] - q[0], end[1] + chain[-1][1] - q[1])
        return shortcut([start] + chain + [end_pt], obstacles.hits)
    return None


def _attach(
    obstacles: SegmentSet, p: RatPoint, n: int
) -> list[tuple[tuple[int, int], tuple[int, int], RatPoint]]:
    """Grid nodes reachable from p by one clear segment.

    Returns (wrapped_key, raw_ints, lifted_node) triples where lifted_node
    is in p's frame."""
    out = []
    i0 = (p[0] - Fraction(1, 3 * n)) * n
    j0 = (p[1] - Fraction(1, 5 * n)) * n
    for i in range(math.floor(i0) - 1, math.floor(i0) + 3):
        for j in range(math.floor(j0) - 1, math.floor(j0) + 3):
            q = grid_node(i, j, n)
            if q == p or not obstacles.hits(Segment(p, q), allow=[p]):
                out.append(((i % n, j % n), (i, j), q))
    return out
