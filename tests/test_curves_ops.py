import random
from fractions import Fraction

import pytest

from finegraph.curves_ops import (
    TOUCHING,
    TRANSVERSE,
    SideChoice,
    intersect_curves,
    is_generic,
    min_dist2_curves,
    push_aside,
)
from finegraph.geom_core import pt
from finegraph.surfaces import TorusCurve, torus_curve_simple

F = Fraction


def geodesic(p, q, x0, y0):
    return TorusCurve([pt(x0, y0), pt(F(x0) + p, F(y0) + q)])


def test_transverse_crossing():
    a = geodesic(1, 0, 0, F(1, 3))
    b = geodesic(0, 1, F(1, 3), 0)
    rep = intersect_curves(a, b)
    assert rep.points == [((F(1, 3), F(1, 3)), TRANSVERSE)]
    assert not rep.overlaps


def test_parallel_disjoint():
    rep = intersect_curves(geodesic(1, 0, 0, F(1, 3)), geodesic(1, 0, 0, F(2, 3)))
    assert not rep.points and not rep.overlaps


def test_wedge_touching():
    a = geodesic(1, 0, 0, F(1, 3))
    b = TorusCurve([pt(0, F(2, 3)), pt(F(1, 2), F(1, 3)), pt(1, F(2, 3))])
    rep = intersect_curves(a, b)
    assert rep.points == [((F(1, 2), F(1, 3)), TOUCHING)]


def test_overlap_reported():
    a = geodesic(1, 0, 0, F(1, 2))
    b = TorusCurve(
        [pt(0, F(1, 2)), pt(F(1, 4), F(1, 2)), pt(F(1, 2), F(3, 4)),
         pt(F(3, 4), F(1, 2)), pt(1, F(1, 2))]
    )
    rep = intersect_curves(a, b)
    assert rep.overlaps


def test_intersection_parity_matches_homology():
    rng = random.Random(23)
    for _ in range(30):
        p1, q1 = rng.choice([(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2)])
        p2, q2 = rng.choice([(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2)])
        a = geodesic(p1, q1, F(rng.randrange(0, 7), 7), F(rng.randrange(0, 5), 5))
        b = geodesic(p2, q2, F(rng.randrange(0, 11), 11), F(rng.randrange(0, 9), 9))
        rep = intersect_curves(a, b)
        if rep.overlaps or any(k == TOUCHING for _, k in rep.points):
            continue
        alg = p1 * q2 - q1 * p2
        assert len(rep.points) % 2 == alg % 2


# -------------------------------------------------------------------- push


def test_push_horizontal_no_obstacles():
    a = geodesic(1, 0, 0, F(1, 2))
    a2 = push_aside(a, SideChoice.LEFT)
    assert a2.homology == (1, 0)
    assert not intersect_curves(a, a2).points
    assert min_dist2_curves(a, a2) > 0


def test_push_with_transverse_obstacle():
    a = geodesic(1, 0, 0, F(1, 2))
    ob = geodesic(0, 1, F(1, 3), 0)
    a2 = push_aside(a, SideChoice.RIGHT, obstacles=[ob])
    rep = intersect_curves(a2, ob)
    assert len(rep.points) == 1
    assert rep.points[0][1] == TRANSVERSE


def test_push_preserves_homology_slope_21():
    a = TorusCurve([pt(0, 0), pt(F(3, 4), F(1, 3)), pt(F(5, 4), F(2, 3)), pt(2, 1)])
    assert torus_curve_simple(a)
    a2 = push_aside(a, SideChoice.LEFT)
    assert a2.homology == (2, 1)
    assert torus_curve_simple(a2)
    assert not intersect_curves(a, a2).points


def test_push_both_sides_disjoint_pair():
    a = geodesic(1, 1, 0, F(1, 5))
    left = push_aside(a, SideChoice.LEFT)
    right = push_aside(a, SideChoice.RIGHT)
    assert not intersect_curves(left, right).points
    assert not intersect_curves(left, a).points
    assert not intersect_curves(right, a).points


def test_push_respects_disjoint_obstacle_clearance():
    from finegraph.geom_core import dist2

    a = geodesic(1, 0, 0, F(1, 2))
    ob = geodesic(1, 0, 0, F(5, 8))  # disjoint obstacle 1/8 away
    a2 = push_aside(a, SideChoice.LEFT, obstacles=[ob])
    assert not intersect_curves(a2, ob).points
    assert min_dist2_curves(a, a2) * 4 < min_dist2_curves(a, ob)


# ------------------------------------------------------------ genericity


def test_is_generic_rejects_identical_pair():
    a = geodesic(1, 0, 0, F(1, 2))
    b = geodesic(1, 0, 0, F(1, 2))
    assert not is_generic([a, b])


def test_is_generic_accepts_transverse_pair():
    a = geodesic(1, 0, 0, F(1, 3))
    b = geodesic(0, 1, F(1, 3), 0)
    assert is_generic([a, b])


def test_is_generic_rejects_triple_point():
    curves = [
        geodesic(1, 0, 0, 0),
        geodesic(0, 1, 0, 0),
        geodesic(1, 1, 0, 0),
    ]
    assert not is_generic(curves)
    assert is_generic(curves[:2])
    assert is_generic([curves[0], curves[1], geodesic(1, 1, 0, F(1, 2))])
