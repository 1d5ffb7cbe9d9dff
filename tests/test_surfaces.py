import math
import random
from fractions import Fraction

import pytest

from finegraph import surfaces
from finegraph.geom_core import Empty, Segment, pt, segment_intersection, vadd
from finegraph.surfaces import (
    AnnulusArc,
    ModelMismatch,
    SurfaceModel,
    TorusCurve,
    complement_components,
    lift_translates_hit,
    path_homology,
    torus_curve_simple,
    torus_pair_hits,
)

F = Fraction


def geodesic(p, q, x0, y0):
    return TorusCurve([pt(x0, y0), pt(F(x0) + p, F(y0) + q)])


def necklace_fixture():
    a = geodesic(1, 0, 0, F(1, 2))
    b = geodesic(0, 1, F(1, 2), 0)
    c = geodesic(1, 1, 0, F(1, 4))
    return a, b, c


def torus_intersection_points(a, b):
    pts = set()
    for _, _, _, res in torus_pair_hits(a, b):
        x, y = res.point
        pts.add((x - math.floor(x), y - math.floor(y)))
    return pts


# ---------------------------------------------------------------- homology


def test_homology_horizontal():
    assert geodesic(1, 0, 0, F(1, 2)).homology == (1, 0)


def test_homology_slope_one():
    assert TorusCurve([pt(0, 0), pt(1, 1)]).homology == (1, 1)


def test_homology_contractible_square():
    s = F(1, 4)
    sq = TorusCurve(
        [pt(0, 0), pt(s, 0), pt(s, s), pt(0, s), pt(0, 0)]
    )
    assert sq.homology == (0, 0)


def test_homology_additive_on_concatenation():
    rng = random.Random(3)
    for _ in range(20):
        mid = (F(rng.randrange(-8, 9), 4), F(rng.randrange(-8, 9), 4))
        end = (mid[0] + rng.randrange(-3, 4), mid[1] + rng.randrange(-3, 4))
        path1 = [pt(0, 0), mid]
        path2 = [mid, end]
        h1 = path_homology(path1)
        h2 = path_homology(path2)
        h = path_homology(path1 + path2[1:])
        assert h == (h1[0] + h2[0], h1[1] + h2[1])


def test_simplicity_checks():
    assert torus_curve_simple(geodesic(1, 0, 0, F(1, 2)))
    assert torus_curve_simple(geodesic(2, 1, 0, F(1, 5)))
    # (2,0) geodesic projects onto a doubly-covered circle: not simple
    assert not torus_curve_simple(TorusCurve([pt(0, 0), pt(2, 0)]))
    # a period path that crosses itself
    bad = TorusCurve([pt(0, 0), pt(1, 1), pt(0, F(1, 2)), pt(1, 0)])
    assert not torus_curve_simple(bad)
    # passes through both (1/2,0) and (1/2,1): crosses its own translate
    bad2 = TorusCurve(
        [pt(0, 0), pt(F(5, 8), 0), pt(F(3, 8), F(5, 4)), pt(1, 0)]
    )
    assert not torus_curve_simple(bad2)


def test_cached_curve_data_is_handed_out_fresh():
    c = TorusCurve([pt(0, F(1, 2)), pt(F(1, 2), F(3, 4)), pt(1, F(1, 2))])
    segs, path = c.segments(), c.period_path()
    assert torus_curve_simple(c)
    segs.append(Segment(pt(0, 0), pt(1, 1)))
    del path[1:]
    assert c.segments() == [
        Segment(pt(0, F(1, 2)), pt(F(1, 2), F(3, 4))),
        Segment(pt(F(1, 2), F(3, 4)), pt(1, F(1, 2))),
    ]
    assert c.period_path() == list(c.lift) and len(c.lift) == 3
    assert c.segments() is not c.segments()
    assert c.homology == (1, 0)
    # cached data takes no part in equality, hashing or repr
    fresh = TorusCurve(list(c.lift))
    assert c == fresh and hash(c) == hash(fresh) and {c, fresh} == {c}
    assert repr(c) == repr(fresh) == (
        "TorusCurve(lift=((Fraction(0, 1), Fraction(1, 2)), "
        "(Fraction(1, 2), Fraction(3, 4)), (Fraction(1, 1), Fraction(1, 2))))"
    )
    assert c != TorusCurve([pt(0, F(1, 2)), pt(1, F(1, 2))])


def test_simplicity_is_decided_once_per_curve_object(monkeypatch):
    seen = []
    decide = surfaces._embedded
    monkeypatch.setattr(surfaces, "_embedded", lambda c: seen.append(c) or decide(c))
    c = TorusCurve([pt(0, 0), pt(2, 0)])
    assert not torus_curve_simple(c) and not torus_curve_simple(c)
    assert len(seen) == 1
    # an equal curve is a new object and decides afresh
    assert not torus_curve_simple(TorusCurve([pt(0, 0), pt(2, 0)]))
    assert len(seen) == 2


# ------------------------------------------------------------- deck shifts


def vertical_arc(x):
    return AnnulusArc(SurfaceModel.COMPACT_ANNULUS, [pt(x, 0), pt(x, 1)])


def test_lift_translates_disjoint_verticals():
    assert lift_translates_hit(vertical_arc(0), vertical_arc(F(1, 2))) == set()


def test_lift_translates_three_turns():
    a = vertical_arc(0)
    b = AnnulusArc(
        SurfaceModel.COMPACT_ANNULUS, [pt(F(1, 6), 0), pt(F(19, 6), 1)]
    )
    ks = lift_translates_hit(a, b)
    assert ks == {1, 2, 3}
    # brute force oracle over |k| <= 5
    oracle = set()
    for k in range(-5, 6):
        sa = Segment(pt(k, 0), pt(k, 1))
        sb = Segment(b.lift[0], b.lift[1])
        if not isinstance(segment_intersection(sa, sb), Empty):
            oracle.add(k)
    assert ks == oracle


def test_lift_translates_self_contains_zero():
    b = AnnulusArc(
        SurfaceModel.COMPACT_ANNULUS, [pt(F(1, 3), 0), pt(F(5, 3), 1)]
    )
    assert 0 in lift_translates_hit(b, b)


def test_lift_translates_model_mismatch():
    a = vertical_arc(0)
    b = AnnulusArc(
        SurfaceModel.OPEN_ANNULUS, [pt(0, 0), pt(0, 1)], end_rays=(-1, 1)
    )
    with pytest.raises(ModelMismatch):
        lift_translates_hit(a, b)


def test_open_annulus_rays_hit():
    # two proper vertical lines at the same x meet after some shift
    a = AnnulusArc(
        SurfaceModel.OPEN_ANNULUS, [pt(0, 0), pt(0, 1)], end_rays=(-1, 1)
    )
    b = AnnulusArc(
        SurfaceModel.OPEN_ANNULUS, [pt(2, 5), pt(2, 6)], end_rays=(-1, 1)
    )
    assert lift_translates_hit(a, b) == {2}


def test_annulus_arc_shifts_compose():
    a = vertical_arc(F(1, 3))
    assert a.shifted(3).shifted(2) == a.shifted(5)
    assert a.shifted(5).shifted(-5) == a


def interval_check(ks):
    if ks:
        assert ks == set(range(min(ks), max(ks) + 1))


def test_interval_property_random_monotone_arcs():
    rng = random.Random(5)
    for _ in range(50):
        def arc():
            x0 = F(rng.randrange(0, 60), 7)
            x1 = x0 + F(rng.randrange(-40, 40), 11)
            if x1 == x0:
                x1 += F(1, 11)
            mid = ((x0 + x1) / 2 + F(rng.randrange(-5, 5), 13), F(1, 2))
            return AnnulusArc(
                SurfaceModel.COMPACT_ANNULUS,
                [pt(x0, 0), mid, pt(x1, 1)],
            )

        ks = lift_translates_hit(arc(), arc())
        interval_check(ks)


# ------------------------------------------------------------------ faces


def test_single_curve_one_face():
    faces = complement_components([geodesic(1, 0, 0, F(1, 2))])
    assert len(faces) == 1
    assert faces[0].curves == frozenset({0})


def test_two_transverse_geodesics_one_face():
    faces = complement_components(
        [geodesic(1, 0, 0, F(1, 2)), geodesic(0, 1, F(1, 2), 0)]
    )
    assert len(faces) == 1


def test_necklace_three_faces():
    faces = complement_components(list(necklace_fixture()))
    assert len(faces) == 3
    for f in faces:
        assert f.curves  # every face is bounded by input curves


def test_three_parallel_three_faces():
    curves = [geodesic(1, 0, 0, F(i, 4)) for i in (1, 2, 3)]
    faces = complement_components(curves)
    assert len(faces) == 3
    labels = sorted(tuple(sorted(f.curves)) for f in faces)
    assert labels == [(0, 1), (0, 2), (1, 2)]


def test_bouquet_two_faces():
    curves = [
        geodesic(1, 0, 0, 0),
        geodesic(0, 1, 0, 0),
        geodesic(1, 1, 0, 0),
    ]
    assert len(complement_components(curves)) == 2


# flood-fill oracle: count complement components on a fine rational grid


def exact_shifts(a_pts, b_pts):
    """Integer vectors v such that b + v can touch a's bounding box, from
    the exact coordinates."""
    ax, ay = [p[0] for p in a_pts], [p[1] for p in a_pts]
    bx, by = [p[0] for p in b_pts], [p[1] for p in b_pts]
    return [
        (i, j)
        for i in range(math.ceil(min(ax) - max(bx)), math.floor(max(ax) - min(bx)) + 1)
        for j in range(math.ceil(min(ay) - max(by)), math.floor(max(ay) - min(by)) + 1)
    ]


def segment_hits_curves(seg, segs_all):
    for v in exact_shifts(
        [p for s in segs_all for p in (s.p, s.q)], [seg.p, seg.q]
    ):
        vv = (F(v[0]), F(v[1]))
        moved = Segment(vadd(seg.p, vv), vadd(seg.q, vv))
        for s in segs_all:
            if not isinstance(segment_intersection(moved, s), Empty):
                return True
    return False


def point_on_curves(p, segs_all):
    for v in exact_shifts(
        [q for s in segs_all for q in (s.p, s.q)], [p, (p[0] + 1, p[1])]
    ):
        vv = (F(v[0]), F(v[1]))
        moved = (p[0] + vv[0], p[1] + vv[1])
        for s in segs_all:
            d = (s.q[0] - s.p[0], s.q[1] - s.p[1])
            w = (moved[0] - s.p[0], moved[1] - s.p[1])
            if d[0] * w[1] - d[1] * w[0] != 0:
                continue
            axis = 0 if d[0] != 0 else 1
            t = w[axis] / d[axis]
            if 0 <= t <= 1:
                return True
    return False


def flood_fill_face_count(curves, n=8):
    segs_all = [s for c in curves for s in c.segments()]
    sx, sy = F(1, 3 * n), F(1, 5 * n)
    index = {(i, j): i * n + j for i in range(n) for j in range(n)}
    nodes = {
        index[(i, j)]: (F(i, n) + sx, F(j, n) + sy)
        for i in range(n)
        for j in range(n)
    }
    alive = {
        k: p for k, p in nodes.items() if not point_on_curves(p, segs_all)
    }
    adj = {k: [] for k in alive}
    for i in range(n):
        for j in range(n):
            for di, dj in ((1, 0), (0, 1)):
                k1 = index[(i, j)]
                k2 = index[((i + di) % n, (j + dj) % n)]
                if k1 not in alive or k2 not in alive:
                    continue
                p = nodes[k1]
                q = (p[0] + F(di, n), p[1] + F(dj, n))
                if not segment_hits_curves(Segment(p, q), segs_all):
                    adj[k1].append(k2)
                    adj[k2].append(k1)
    seen = set()
    comps = 0
    for s in alive:
        if s in seen:
            continue
        comps += 1
        stack = [s]
        seen.add(s)
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    return comps


@pytest.mark.parametrize(
    "curves,expected",
    [
        ([geodesic(1, 0, 0, F(1, 2))], 1),
        ([geodesic(1, 0, 0, F(1, 2)), geodesic(0, 1, F(1, 2), 0)], 1),
        (list(necklace_fixture()), 3),
        ([geodesic(1, 0, 0, F(i, 4)) for i in (1, 2, 3)], 3),
    ],
)
def test_faces_agree_with_flood_fill(curves, expected):
    assert len(complement_components(curves)) == expected
    assert flood_fill_face_count(curves, n=16) == expected


def euler_counts(curves):
    v_pts = set()
    per_curve = [set() for _ in curves]
    for i in range(len(curves)):
        for j in range(i + 1, len(curves)):
            for p in torus_intersection_points(curves[i], curves[j]):
                v_pts.add(p)
                per_curve[i].add(p)
                per_curve[j].add(p)
    V = len(v_pts)
    E = sum(max(len(s), 1) for s in per_curve)
    return V, E


def test_euler_characteristic_random_unions():
    rng = random.Random(17)
    trials = 0
    while trials < 12:
        k = rng.randrange(1, 5)
        curves = []
        used = set()
        for _ in range(k):
            p, q = rng.choice([(1, 0), (0, 1), (1, 1), (1, -1), (2, 1)])
            off = (F(rng.randrange(0, 12), 12), F(rng.randrange(0, 12), 12))
            key = (p, q, off)
            if key in used:
                continue
            used.add(key)
            curves.append(geodesic(p, q, off[0], off[1]))
        if not curves:
            continue
        # skip degenerate unions where two parallel curves coincide setwise
        reps = set()
        ok = True
        for c in curves:
            h = c.homology
            r = c.lift[0][0] * h[1] - c.lift[0][1] * h[0]
            if (h, r) in reps:
                ok = False
            reps.add((h, r))
        if not ok:
            continue
        trials += 1
        V, E = euler_counts(curves)
        F_count = len(complement_components(curves))
        assert V - E + F_count == 0, (curves, V, E, F_count)
