import random
from fractions import Fraction

import pytest

from finegraph.geom_core import path_segments, polyline_self_intersects
from finegraph.germs_width import (
    ContractionMismatch,
    DegenerateBigon,
    GermSpec,
    NonGeneric,
    WidthResult,
    _inside_strip,
    _thread_strip,
    distance_path,
    germ_width,
    rand_neighbor,
    relative_width,
)
from finegraph.surfaces import (
    INFINITE,
    AnnulusArc,
    ModelMismatch,
    SurfaceModel,
    TorusCurve,
    lift_translates_hit,
)
from finegraph.routing import SegmentSet

F = Fraction
CA = SurfaceModel.COMPACT_ANNULUS


def vertical(x):
    return AnnulusArc(CA, [(F(x), F(0)), (F(x), F(1))])


def winding(k):
    """An arc climbing the annulus while winding k times around it."""
    pts = [(F(0), F(0))]
    for i in range(k):
        pts.append((F(i) + F(1, 2), F(2 * i + 1, 2 * k)))
    pts.append((F(k), F(1)))
    return AnnulusArc(CA, pts)


# ---------------------------------------------------- independent oracles


def _ccw(a, b, c):
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _segs_touch(p1, q1, p2, q2):
    d1 = _ccw(p2, q2, p1)
    d2 = _ccw(p2, q2, q1)
    d3 = _ccw(p1, q1, p2)
    d4 = _ccw(p1, q1, q2)
    if ((d1 > 0) != (d2 > 0) or 0 in (d1, d2)) and (
        (d3 > 0) != (d4 > 0) or 0 in (d3, d4)
    ):
        def on(a, b, c):
            return (
                _ccw(a, b, c) == 0
                and min(a[0], b[0]) <= c[0] <= max(a[0], b[0])
                and min(a[1], b[1]) <= c[1] <= max(a[1], b[1])
            )

        if 0 in (d1, d2, d3, d4):
            return (
                on(p2, q2, p1) or on(p2, q2, q1) or on(p1, q1, p2) or on(p1, q1, q2)
            )
        return True
    return False


def _paths_meet(u, v):
    for i in range(len(u) - 1):
        for j in range(len(v) - 1):
            if _segs_touch(u[i], u[i + 1], v[j], v[j + 1]):
                return True
    return False


def oracle_width(a, b, span):
    """Brute force |K| by testing every shift in [-span, span]."""
    ks = set()
    for j in range(-span, span + 1):
        shifted = [(p[0] + j, p[1]) for p in a.lift]
        if _paths_meet(shifted, list(b.lift)):
            ks.add(j)
    return ks


# ------------------------------------------------------------ arc widths


def test_disjoint_verticals_width_zero():
    res = relative_width(vertical(F(1, 4)), vertical(F(3, 4)))
    assert res.width == 0 and res.K == ()


def test_winding_fixtures_match_oracle():
    a = vertical(F(1, 3))
    for k in range(0, 11):
        b = winding(k) if k else vertical(F(2, 3))
        res = relative_width(a, b)
        assert res.width == k
        assert set(res.K) == oracle_width(a, b, k + 2)


def test_torus_pair_width():
    a = TorusCurve([(F(0), F(0)), (F(1), F(1))])
    b = TorusCurve([(F(1, 2), F(0)), (F(1, 2), F(1))])
    assert relative_width(a, b).width == 1


def test_width_symmetry_and_interval():
    rng = random.Random(23)
    for _ in range(60):
        k1, k2 = rng.randrange(0, 4), rng.randrange(0, 4)
        a = winding(k1) if k1 else vertical(F(rng.randrange(1, 8), 8))
        b = winding(k2) if k2 else vertical(F(rng.randrange(1, 8), 8))
        ra = relative_width(a, b)
        rb = relative_width(b, a)
        assert ra.width == rb.width
        if ra.K:
            assert ra.K[-1] - ra.K[0] == len(ra.K) - 1


def test_from_set_rejects_gap():
    with pytest.raises(NonGeneric):
        WidthResult.from_set({0, 2})


# --------------------------------------------------------- explicit paths


def test_path_disjoint_pair():
    a, b = vertical(F(1, 4)), vertical(F(3, 4))
    assert distance_path(a, b) == [a, b]


def test_path_width_three():
    a, b = vertical(F(1, 3)), winding(3)
    path = distance_path(a, b)
    assert len(path) == 5
    widths = [relative_width(v, b).width for v in path[:-1]]
    assert widths == [3, 2, 1, 0]
    for u, v in zip(path, path[1:]):
        assert lift_translates_hit(u, v) == set()


def test_path_width_ten():
    a, b = vertical(F(1, 3)), winding(10)
    path = distance_path(a, b)
    assert len(path) == 12
    for u, v in zip(path, path[1:]):
        assert lift_translates_hit(u, v) == set()


def test_random_neighbors_lower_bound():
    rng = random.Random(7)
    a, b = vertical(F(1, 3)), winding(4)
    w = relative_width(a, b).width
    for _ in range(50):
        nb = rand_neighbor(a, rng)
        assert lift_translates_hit(nb, a) == set()
        assert relative_width(nb, b).width >= w - 1


def test_path_commutes_with_integer_shifts():
    a, b = vertical(F(1, 3)), winding(3)
    path = distance_path(a, b)
    for k in (1, -2):
        assert distance_path(a.shifted(k), b.shifted(k)) == [u.shifted(k) for u in path]


@pytest.mark.parametrize(
    "wall, others, waypoint",
    [
        (vertical(F(1, 3)), [], None),
        (vertical(F(1, 3)), [], (F(5, 6), F(9, 16))),
        (winding(3), [], None),
        # a lift running from y = 1 down to y = 0
        (AnnulusArc(CA, [(F(2), F(1)), (F(5, 2), F(1, 2)), (F(3, 2), F(0))]), [], None),
        # the two extreme translates of winding(3) that distance_path
        # avoids on its first step from vertical(1/3)
        (vertical(F(1, 3)), [winding(3).shifted(1), winding(3).shifted(-2)], None),
    ],
)
def test_thread_strip_is_clear_simple_and_spans_the_window(wall, others, waypoint):
    lift = list(wall.lift)
    obstacles = [list(u.lift) for u in others]
    path = _thread_strip(lift, obstacles, waypoint=waypoint)
    assert path is not None
    right = [(x + 1, y) for x, y in lift]
    blockers = SegmentSet(
        [s for p in (lift, right, *obstacles) for s in path_segments(p)]
    )
    assert not any(blockers.hits(s) for s in path_segments(path))
    foot = {p[1]: p[0] for p in (lift[0], lift[-1])}
    assert path[0][1] == 0 and foot[0] < path[0][0] < foot[0] + 1
    assert path[-1][1] == 1 and foot[1] < path[-1][0] < foot[1] + 1
    assert not polyline_self_intersects(path)
    assert lift_translates_hit(AnnulusArc(CA, path), wall) == set()


V_WALL = [(F(0), F(0)), (F(1, 4), F(1, 2)), (F(0), F(1))]


@pytest.mark.parametrize("wall", [V_WALL, V_WALL[::-1]], ids=["up", "down"])
def test_inside_strip_at_a_wall_vertex_height(wall):
    # the rightward ray from (1/2, 1/2) runs through the vertex (5/4, 1/2)
    # of the wall's translate
    assert _inside_strip((F(1, 2), F(1, 2)), wall)
    assert _inside_strip((F(3, 4), F(1, 4)), wall)


@pytest.mark.parametrize("wall", [V_WALL, V_WALL[::-1]], ids=["up", "down"])
@pytest.mark.parametrize(
    "p",
    [
        (F(1, 4), F(1, 2)), (F(1, 8), F(1, 4)), (F(5, 4), F(1, 2)),
        (F(1, 2), F(0)), (F(1, 2), F(1)), (F(1, 2), F(3, 2)),
        (F(-1, 2), F(1, 2)), (F(3, 2), F(1, 2)), (F(1, 16), F(1, 4)),
    ],
    ids=["wall_vertex", "on_wall", "on_translate", "y0", "y1", "above",
         "left_strip", "right_strip", "left_of_wall"],
)
def test_outside_strip(wall, p):
    assert not _inside_strip(p, wall)


def test_path_rejects_torus_curves():
    a = TorusCurve([(F(0), F(0)), (F(1), F(1))])
    with pytest.raises(ModelMismatch):
        distance_path(a, a)


# ------------------------------------------------------------------ germs

RAY_UP = GermSpec([], [(0, 1), (0, F(1, 2))], F(1, 2), (1, 0))
RAY_DOWN_LEFT = GermSpec(
    [], [(-1, F(-1, 3)), (F(-1, 2), F(-1, 6))], F(1, 2), (1, 0)
)
RAY_TILTED = GermSpec([], [(1, 2), (F(1, 2), 1)], F(1, 2), (1, 0))

SPIRAL = GermSpec(
    [],
    [(0, 1), (F(-3, 4), F(3, 5)), (F(-4, 5), F(-1, 5)), (F(-1, 5), F(-3, 4)),
     (F(1, 2), F(-1, 2)), (F(3, 5), F(1, 5)), (0, F(1, 2))],
    F(1, 2),
    (1, 0),
)


def _bulged_spiral(prefix=()):
    t = F(7, 10)
    pts = [(t * x, t * y) for x, y in SPIRAL.generator]
    pts[0] = (F(1, 20), pts[0][1])
    pts[-1] = (F(1, 40), pts[-1][1])
    pts[2] = (3 * pts[2][0], 3 * pts[2][1])
    return GermSpec(list(prefix), pts, F(1, 2), (1, 0))


def test_disjoint_rays_width_zero():
    res = germ_width(RAY_UP, RAY_DOWN_LEFT)
    assert res.width == 0 and res.comparable


def test_ray_against_spiral_infinite():
    res = germ_width(RAY_TILTED, SPIRAL)
    assert res.width == INFINITE and not res.comparable
    assert germ_width(SPIRAL, RAY_TILTED).width == INFINITE


def test_matched_spirals_width_two():
    res = germ_width(SPIRAL, _bulged_spiral())
    assert res.width == 2 and res.comparable


def test_width_ignores_prefix():
    plain = germ_width(SPIRAL, _bulged_spiral())
    pre1 = GermSpec([(2, 2), (0, 1)], SPIRAL.generator, F(1, 2), (1, 0))
    pre2 = _bulged_spiral(prefix=[(-3, 1), (F(1, 20), F(7, 10))])
    assert germ_width(pre1, pre2) == plain
    assert germ_width(pre1, _bulged_spiral()) == plain
    assert germ_width(SPIRAL, pre2) == plain


def _turns_to(path, stop_seg, point):
    """Signed crossings of the positive x-axis along path up to point."""
    total = 0
    pts = list(path[: stop_seg + 1]) + [point]
    for i in range(len(pts) - 1):
        p, q = pts[i], pts[i + 1]
        if p[1] == 0 or q[1] == 0 or (p[1] > 0) == (q[1] > 0):
            continue
        x = p[0] + (q[0] - p[0]) * p[1] / (p[1] - q[1])
        if x > 0:
            total += 1 if q[1] > 0 else -1
    return total


def _cross_point(p1, q1, p2, q2):
    d = (q1[0] - p1[0]) * (q2[1] - p2[1]) - (q1[1] - p1[1]) * (q2[0] - p2[0])
    if d == 0:
        return None
    t = ((p2[0] - p1[0]) * (q2[1] - p2[1]) - (p2[1] - p1[1]) * (q2[0] - p2[0])) / d
    s = ((p2[0] - p1[0]) * (q1[1] - p1[1]) - (p2[1] - p1[1]) * (q1[0] - p1[0])) / d
    if 0 < t < 1 and 0 < s < 1:
        return (p1[0] + t * (q1[0] - p1[0]), p1[1] + t * (q1[1] - p1[1]))
    return None


def oracle_germ_ks(g1, g2, periods=12):
    """Enumerate tail-copy crossings over the given number of periods and
    collect winding discrepancies directly."""
    ks = set()
    copies1 = [g1.copy_path(i) for i in range(periods)]
    copies2 = [g2.copy_path(j) for j in range(periods)]
    full1 = [p for c in copies1 for p in c[:-1]] + [copies1[-1][-1]]
    full2 = [p for c in copies2 for p in c[:-1]] + [copies2[-1][-1]]
    for i in range(len(full1) - 1):
        for j in range(len(full2) - 1):
            pt = _cross_point(full1[i], full1[i + 1], full2[j], full2[j + 1])
            if pt is None:
                continue
            ks.add(_turns_to(full1, i, pt) - _turns_to(full2, j, pt))
    return ks


def test_oracle_confirms_spiral_widths():
    assert len(oracle_germ_ks(SPIRAL, _bulged_spiral())) == 2
    assert len(oracle_germ_ks(RAY_UP, RAY_DOWN_LEFT)) == 0
    # a spiral gains one crossing class against a ray with every period
    assert len(oracle_germ_ks(RAY_TILTED, SPIRAL)) >= 10


def test_contraction_mismatch():
    other = GermSpec([], [(0, 1), (0, F(1, 3))], F(1, 3), (1, 0))
    with pytest.raises(ContractionMismatch):
        germ_width(RAY_UP, other)


def test_vertex_on_reference_ray_rejected():
    on_axis = GermSpec([], [(1, 1), (2, 0), (F(1, 2), F(1, 2))], F(1, 2), (1, 0))
    with pytest.raises(NonGeneric):
        germ_width(RAY_UP, on_axis)


def test_germ_spec_validation():
    with pytest.raises(ValueError):
        GermSpec([], [(0, 1), (0, F(1, 3))], F(1, 2), (1, 0))  # no chain
    with pytest.raises(ValueError):
        GermSpec([], [(0, 1), (0, F(1, 2))], F(3, 2), (1, 0))  # lam >= 1
    with pytest.raises(ValueError):
        GermSpec([], [(0, 1), (0, F(1, 2))], F(1, 2), (F(1, 2), F(1, 2)))


def test_germ_spec_json_round_trip():
    g = _bulged_spiral(prefix=[(-3, 1), (F(1, 20), F(7, 10))])
    assert GermSpec.from_json(g.to_json()) == g
