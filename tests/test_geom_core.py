import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from finegraph.geom_core import (
    EMPTY,
    Empty,
    Overlap,
    PointHit,
    Segment,
    bbox_candidate_pairs,
    contacts,
    float_box,
    lattice_shifts,
    orient,
    polyline_self_intersects,
    pt,
    segment_intersection,
    shift_segment,
    surely_disjoint,
    vadd,
)
from finegraph.routing import SegmentSet

rats = st.fractions(min_value=-50, max_value=50, max_denominator=20)
points = st.tuples(rats, rats)


def test_orient_examples():
    assert orient(pt(0, 0), pt(1, 0), pt(0, 1)) == 1
    assert orient(pt(0, 0), pt(1, 0), pt(2, 0)) == 0
    # cross product by hand: 1*(-2/7) - 0*(1/3) < 0
    assert orient(pt(0, 0), pt(1, 0), pt(Fraction(1, 3), Fraction(-2, 7))) == -1


@given(points, points, points)
def test_orient_antisymmetry(p, q, r):
    assert orient(p, q, r) == -orient(p, r, q)


@given(points, points, points, points)
def test_orient_translation_invariance(p, q, r, t):
    assert orient(p, q, r) == orient(vadd(p, t), vadd(q, t), vadd(r, t))


def test_segment_intersection_crossing():
    res = segment_intersection(
        Segment(pt(0, 0), pt(1, 1)), Segment(pt(0, 1), pt(1, 0))
    )
    assert isinstance(res, PointHit)
    assert res.point == pt(Fraction(1, 2), Fraction(1, 2))
    assert res.interior1 and res.interior2


def test_segment_intersection_empty():
    res = segment_intersection(
        Segment(pt(0, 0), pt(1, 0)), Segment(pt(2, 0), pt(3, 0))
    )
    assert isinstance(res, Empty)


def test_segment_intersection_overlap():
    res = segment_intersection(
        Segment(pt(0, 0), pt(2, 0)), Segment(pt(1, 0), pt(3, 0))
    )
    assert isinstance(res, Overlap)
    assert {res.segment.p, res.segment.q} == {pt(1, 0), pt(2, 0)}


def test_segment_intersection_endpoint_touch():
    res = segment_intersection(
        Segment(pt(0, 0), pt(1, 0)), Segment(pt(1, 0), pt(1, 1))
    )
    assert isinstance(res, PointHit)
    assert res.point == pt(1, 0)
    assert not res.interior1 and not res.interior2


@given(points, points, points, points)
def test_segment_intersection_symmetric(a, b, c, d):
    if a == b or c == d:
        return
    s1, s2 = Segment(a, b), Segment(c, d)
    r12 = segment_intersection(s1, s2)
    r21 = segment_intersection(s2, s1)
    assert type(r12) is type(r21)
    if isinstance(r12, PointHit):
        assert r12.point == r21.point
        assert (r12.interior1, r12.interior2) == (r21.interior2, r21.interior1)
    if isinstance(r12, Overlap):
        assert {r12.segment.p, r12.segment.q} == {r21.segment.p, r21.segment.q}


@given(points, points, points, points)
def test_segment_intersection_vs_sampled_solver(a, b, c, d):
    # sampled parametric containment check: any sampled common point must be
    # reported, and a reported Empty forbids sampled hits
    if a == b or c == d:
        return
    s1, s2 = Segment(a, b), Segment(c, d)
    res = segment_intersection(s1, s2)
    rng = random.Random(7)
    for _ in range(10):
        t = Fraction(rng.randrange(0, 101), 100)
        p = vadd(a, ((b[0] - a[0]) * t, (b[1] - a[1]) * t))
        # is p on s2?
        on2 = False
        u_den = None
        dc = (d[0] - c[0], d[1] - c[1])
        w = (p[0] - c[0], p[1] - c[1])
        if dc[0] * w[1] - dc[1] * w[0] == 0:
            axis = 0 if dc[0] != 0 else 1
            u = w[axis] / dc[axis]
            on2 = 0 <= u <= 1
        if on2:
            assert not isinstance(res, Empty)


def test_polyline_square_simple():
    square = [pt(0, 0), pt(1, 0), pt(1, 1), pt(0, 1)]
    assert not polyline_self_intersects(square, closed=True)


def test_polyline_figure_eight():
    fig8 = [pt(0, 0), pt(1, 1), pt(1, 0), pt(0, 1)]
    assert polyline_self_intersects(fig8, closed=True)


def test_polyline_monotone_zigzag_simple():
    # x-monotone polylines are simple; checked against the O(n^2) oracle
    rng = random.Random(11)
    xs = sorted(
        {Fraction(rng.randrange(0, 10000), 7) for _ in range(100)}
    )
    path = [pt(x, Fraction(rng.randrange(-50, 50), 13)) for x in xs]
    assert not polyline_self_intersects(path, closed=False)


def test_polyline_adjacent_backtrack_detected():
    # adjacent edges overlapping beyond the shared vertex
    path = [pt(0, 0), pt(2, 0), pt(1, 0)]
    assert polyline_self_intersects(path, closed=False)


# ------------------------------------------------------ the float prefilter

big = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**9)
shift_st = st.tuples(st.integers(-3, 3), st.integers(-3, 3))


# parameters whose points are not dyadic, so that floats round them
ratios = st.sampled_from((Fraction(1, 3), Fraction(2, 7), Fraction(1, 1009))) | st.fractions(
    0, 1, max_denominator=10**6
).filter(lambda t: 0 < t < 1)


def _at(p, q, t):
    return (p[0] + (q[0] - p[0]) * t, p[1] + (q[1] - p[1]) * t)


@st.composite
def segment_lists(draw):
    """Segments over a shared point pool, with axis-parallel pieces,
    collinear sub-segments and T-junctions (a segment and a stem starting
    inside it), so that shared endpoints, overlaps and interior touches
    occur."""
    pool = draw(st.lists(st.tuples(big, big), min_size=2, max_size=6, unique=True))
    segs = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(("pool", "axis", "sub", "tee")))
        p = draw(st.sampled_from(pool))
        if kind == "tee":
            q = draw(st.sampled_from(pool))
            if p != q:
                segs.append(Segment(p, q))
                p = _at(p, q, draw(ratios))
            q = draw(st.sampled_from(pool))
        elif kind == "pool":
            q = draw(st.sampled_from(pool))
        elif kind == "axis":
            d = draw(big.filter(lambda x: x != 0))
            q = (p[0] + d, p[1]) if draw(st.booleans()) else (p[0], p[1] + d)
        else:
            q = draw(st.sampled_from(pool))
            t, u = draw(st.fractions(0, 1, max_denominator=10**6)), draw(
                st.fractions(0, 1, max_denominator=10**6)
            )
            p, q = _at(p, q, t), _at(p, q, u)
        if p != q:
            segs.append(Segment(p, q))
    return segs


@given(
    segment_lists(),
    segment_lists(),
    st.lists(shift_st, min_size=1, max_size=4, unique=True),
    st.data(),
)
def test_bbox_candidates_keep_every_contact_in_order(segs1, segs2, shifts, data):
    # some copies of segs1 moved back by a shift, so that shifted contacts
    # (collinear overlaps and shared endpoints among them) certainly occur
    for s in segs1[:2]:
        v = data.draw(st.sampled_from(shifts))
        segs2 = segs2 + [shift_segment(s, (-v[0], -v[1]))]
    got = list(bbox_candidate_pairs(segs1, segs2, shifts))
    rank = [(shifts.index(v), i, j) for v, i, j in got]
    assert rank == sorted(rank) and len(set(rank)) == len(rank)
    want = [
        (v, i, j, res)
        for v in shifts
        for i, s1 in enumerate(segs1)
        for j, s2 in enumerate(segs2)
        if not isinstance(res := segment_intersection(s1, shift_segment(s2, v)), Empty)
    ]
    got_set = set(got)
    assert all((v, i, j) in got_set for v, i, j, _ in want)
    # the contact enumerator decides exactly the candidates, in their order
    assert list(contacts(segs1, segs2, shifts)) == want


@st.composite
def touching_pairs(draw):
    """(s1, s2, v): segments s1 and s2 that meet, and an integer shift v.

    s2 meets s1 at a T-junction (an end of s2 inside s1, at a non-dyadic
    point), at a shared endpoint, or along a collinear overlap or touch.
    Shifts reach far beyond the coordinates, so that s2 - v is large where
    s2 is small."""
    coord = big | st.integers(-2018, 2018).map(lambda k: Fraction(k, 1009))
    p, q = draw(st.lists(st.tuples(coord, coord), min_size=2, max_size=2, unique=True))
    kind = draw(st.sampled_from(("tee", "endpoint", "collinear")))
    t = draw(ratios)
    if kind == "collinear":
        u = draw(st.fractions(-1, 2, max_denominator=10**6).filter(lambda u: u != t))
        a, b = _at(p, q, t), _at(p, q, u)
    else:
        a = _at(p, q, t) if kind == "tee" else draw(st.sampled_from((p, q)))
        b = draw(st.tuples(coord, coord).filter(lambda b: b != a))
    v = draw(st.tuples(st.integers(-10**9, 10**9), st.integers(-10**9, 10**9)))
    return Segment(p, q), Segment(a, b), v


def _floats(s):
    return (float(s.p[0]), float(s.p[1]), float(s.q[0]), float(s.q[1]))


@settings(max_examples=300)
@given(touching_pairs())
def test_surely_disjoint_never_skips_a_contact(pair):
    s1, s2, v = pair
    assert not isinstance(segment_intersection(s1, s2), Empty)
    # s2 reaches the filter as the float copy of s2 - v, moved back by v in
    # floats; the candidate loop instead moves s1 by -v in floats
    vx, vy = float(v[0]), float(v[1])
    px, py, qx, qy = _floats(shift_segment(s2, (-v[0], -v[1])))
    moved = (px + vx, py + vy, qx + vx, qy + vy)
    scale = max(abs(vx), abs(vy))
    assert not surely_disjoint(*_floats(s1), *moved, scale)
    assert not surely_disjoint(*moved, *_floats(s1), scale)
    ax, ay, bx, by = _floats(s1)
    assert not surely_disjoint(ax - vx, ay - vy, bx - vx, by - vy, px, py, qx, qy, scale)
    assert not surely_disjoint(*_floats(s1), *_floats(s2), 0.0)
    back = [shift_segment(s2, (-v[0], -v[1]))]
    assert list(bbox_candidate_pairs([s1], back, [v])) == [(v, 0, 0)]


def test_bbox_candidates_skip_distant_boxes():
    a = [Segment(pt(0, 0), pt(1, 0))]
    b = [Segment(pt(0, 5), pt(1, 5)), Segment(pt(3, 0), pt(3, 1))]
    assert list(bbox_candidate_pairs(a, b)) == []
    assert list(bbox_candidate_pairs(a, b, [(0, -5), (-2, 0)])) == [
        ((0, -5), 0, 0),
        ((-2, 0), 0, 1),
    ]


small = st.fractions(min_value=-1, max_value=2, max_denominator=8)
small_pts = st.tuples(small, small)


def _brute_hits(obstacles, seg, allow, wrap_x, wrap_y):
    for i in range(-4, 5) if wrap_x else (0,):
        for j in range(-4, 5) if wrap_y else (0,):
            moved = shift_segment(seg, (-i, -j))
            for s in obstacles:
                res = segment_intersection(moved, s)
                if isinstance(res, Empty):
                    continue
                if isinstance(res, PointHit) and (res.point[0] + i, res.point[1] + j) in allow:
                    continue
                return True
    return False


@given(
    st.lists(st.tuples(small_pts, small_pts), max_size=5),
    small_pts,
    small_pts,
    st.booleans(),
    st.booleans(),
    st.sampled_from(("none", "start", "end")),
)
def test_segment_set_hits_matches_brute_force(raw, p, q, wrap_x, wrap_y, allow_kind):
    obstacles = [Segment(a, b) for a, b in raw if a != b]
    if p == q:
        return
    seg = Segment(p, q)
    allow = {"none": [], "start": [p], "end": [q]}[allow_kind]
    got = SegmentSet(obstacles, wrap_x=wrap_x, wrap_y=wrap_y).hits(seg, allow=allow)
    assert got == _brute_hits(obstacles, seg, set(allow), wrap_x, wrap_y)


# dyadic coordinates convert to floats exactly, so the probe's floats are
# the probe itself; coarse ones often land exactly on obstacles
dyadic = st.integers(-8, 16).map(lambda n: Fraction(n, 8)) | st.integers(
    -64, 128
).map(lambda n: Fraction(n, 64))
dyadic_pts = st.tuples(dyadic, dyadic)


@settings(max_examples=300)
@given(
    st.lists(st.tuples(small_pts, small_pts), max_size=5),
    dyadic_pts,
    dyadic_pts,
    st.booleans(),
    st.booleans(),
)
@example([((0, 0), (1, 0))], (Fraction(1, 2), 0), (Fraction(1, 2), Fraction(1, 2)), False, False)
@example([((0, 0), (1, 0))], (Fraction(1, 2), 1), (Fraction(5, 8), 2), False, True)
@example([((Fraction(1, 3), 0), (Fraction(1, 3), 1))], (0, Fraction(1, 2)), (Fraction(3, 8), 2), True, False)
def test_segment_set_surely_free_is_sound(raw, p, q, wrap_x, wrap_y):
    obstacles = [Segment(a, b) for a, b in raw if a != b]
    if p == q:
        return
    sset = SegmentSet(obstacles, wrap_x=wrap_x, wrap_y=wrap_y)
    if sset.surely_free(float(p[0]), float(p[1]), float(q[0]), float(q[1])):
        assert not _brute_hits(obstacles, Segment(p, q), set(), wrap_x, wrap_y)


def _reference_surely_free(obstacles, wrap_x, wrap_y, px, py, qx, qy):
    """The verdict of ``SegmentSet.surely_free`` as its own box loop decided
    it: translates from the unpadded float bounds of the obstacles with slack
    1e-6, the probe moved by -(i, j), the scale max(|i|, |j|)."""
    if not obstacles:
        return True
    segf = [_floats(s) for s in obstacles]
    boxf = [float_box(*f) for f in segf]
    xs = [c for f in segf for c in (f[0], f[2])]
    ys = [c for f in segf for c in (f[1], f[3])]
    ox0, ox1, oy0, oy1 = min(xs), max(xs), min(ys), max(ys)
    bx0, bx1, by0, by1 = float_box(px, py, qx, qy)
    slack = 1e-6
    vx = range(math.ceil(bx0 - ox1 - slack), math.floor(bx1 - ox0 + slack) + 1) if wrap_x else (0,)
    vy = range(math.ceil(by0 - oy1 - slack), math.floor(by1 - oy0 + slack) + 1) if wrap_y else (0,)
    for i in vx:
        for j in vy:
            a0, a1 = bx0 - i, bx1 - i
            b0, b1 = by0 - j, by1 - j
            shift = max(abs(i), abs(j))
            for k, (sx0, sx1, sy0, sy1) in enumerate(boxf):
                if sx0 > a1 or a0 > sx1 or sy0 > b1 or b0 > sy1:
                    continue
                if not surely_disjoint(px - i, py - j, qx - i, qy - j, *segf[k], shift):
                    return False
    return True


# offsets that put a probe end on an obstacle, within the float margins of
# one, or near the 1e-6 slack of the translate range
nudges = st.sampled_from((0.0, 2.0**-30, -(2.0**-30), 2.0**-20, -(2.0**-20), 1e-6, -1e-6, 2.0**-6))


@settings(max_examples=300)
@given(
    st.lists(st.tuples(dyadic_pts | small_pts, dyadic_pts | small_pts), max_size=6),
    st.booleans(),
    st.booleans(),
    st.data(),
)
def test_surely_free_matches_its_reference_loop(raw, wrap_x, wrap_y, data):
    obstacles = [Segment(a, b) for a, b in raw if a != b]
    pool = [p for s in obstacles for p in (s.p, s.q, _at(s.p, s.q, Fraction(1, 2)))]
    ends = []
    for _ in range(2):
        if pool and data.draw(st.booleans()):
            p = data.draw(st.sampled_from(pool))
            i, j = data.draw(shift_st)
            i, j = i if wrap_x else 0, j if wrap_y else 0
            dx, dy = data.draw(nudges), data.draw(nudges)
            ends.append((float(p[0]) + i + dx, float(p[1]) + j + dy))
        else:
            p = data.draw(dyadic_pts)
            ends.append((float(p[0]), float(p[1])))
    (px, py), (qx, qy) = ends
    got = SegmentSet(obstacles, wrap_x=wrap_x, wrap_y=wrap_y).surely_free(px, py, qx, qy)
    assert got == _reference_surely_free(obstacles, wrap_x, wrap_y, px, py, qx, qy)


@st.composite
def near_boxes(draw):
    """Two exact boxes (x0, x1, y0, y1) within a few units of each other
    around a point of magnitude 1e-9 to 1e12; some of their sides differ by
    an exact integer, so that a shift lands on the boundary of the range."""
    c = Fraction(draw(st.integers(-999, 999)), 1000) * Fraction(10) ** draw(st.integers(-9, 12))
    off = st.fractions(-3, 3, max_denominator=10**9)
    width = st.just(Fraction(0)) | st.fractions(0, 3, max_denominator=10**9)

    def side():
        lo = c + draw(off)
        return [lo, lo + draw(width)]

    ax, ay, bx, by = side(), side(), side(), side()
    for a, b in ((ax, bx), (ay, by)):
        if draw(st.booleans()):
            d = b[1] - b[0]
            b[1] = a[0] - draw(st.integers(-3, 3))
            b[0] = b[1] - d
        if draw(st.booleans()):
            d = b[1] - b[0]
            b[0] = a[1] - draw(st.integers(-3, 3))
            b[1] = b[0] + d
    return (*ax, *ay), (*bx, *by)


@settings(max_examples=300)
@given(near_boxes(), st.booleans())
def test_lattice_shifts_cover_the_exact_range(boxes, wrap_y):
    a, b = boxes
    got = lattice_shifts(tuple(map(float, a)), tuple(map(float, b)), wrap_y=wrap_y)
    assert got == sorted(got)
    vx = range(math.ceil(a[0] - b[1]), math.floor(a[1] - b[0]) + 1)
    vy = range(math.ceil(a[2] - b[3]), math.floor(a[3] - b[2]) + 1) if wrap_y else (0,)
    assert {(i, j) for i in vx for j in vy} <= set(got)
    # the slack stays below a unit or so, even at 1e12
    for i, j in got:
        assert a[0] - b[1] - 2 <= i <= a[1] - b[0] + 2
        assert not wrap_y or a[2] - b[3] - 2 <= j <= a[3] - b[2] + 2
