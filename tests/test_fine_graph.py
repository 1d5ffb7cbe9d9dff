import random
from collections import Counter
from fractions import Fraction

import pytest

from finegraph.curves_ops import intersect_curves
from finegraph.fine_graph import (
    ALL_DISJOINT,
    BOUQUET,
    NECKLACE,
    TWO_PAIR,
    DisjointEdge,
    IsNecklace,
    NotAClique,
    NotAVertex,
    NotFar,
    NonEdge,
    TransverseEdge,
    WitnessSearchFailed,
    _FaceLocator,
    _routed_loop,
    check_vertex,
    classify_clique3,
    close_through,
    faces_met,
    far_witness,
    is_edge,
    necklace_witness_F,
    refute_N,
)
from finegraph.generators import REALIZABLE_TYPES, rand_clique3, rand_vertex
from finegraph.geom_core import pt, Segment, vadd
from finegraph.routing import SegmentSet, torus_route
from finegraph.surfaces import (
    TorusCurve,
    _scaffold_curves,
    complement_components,
    curve_arrangement,
    torus_rep,
)

F = Fraction


def geodesic(p, q, x0, y0):
    return TorusCurve([pt(x0, y0), pt(F(x0) + p, F(y0) + q)])


def necklace_trio():
    a = geodesic(1, 0, 0, F(1, 2))
    b = geodesic(0, 1, F(1, 2), 0)
    c = TorusCurve([pt(0, F(1, 4)), pt(F(3, 4), 1), pt(1, F(5, 4))])
    return a, b, c


def bouquet_trio():
    return (
        geodesic(1, 0, 0, F(1, 2)),
        geodesic(0, 1, F(1, 2), 0),
        geodesic(1, 1, 0, 0),
    )


# ------------------------------------------------------------------ edges


def test_edge_tags():
    a = geodesic(1, 0, 0, F(1, 2))
    assert isinstance(is_edge(a, geodesic(1, 0, 0, F(1, 4))), DisjointEdge)
    tag = is_edge(a, geodesic(0, 1, F(1, 3), 0))
    assert tag == TransverseEdge((F(1, 3), F(1, 2)))


def test_edge_rejects_multi_crossing():
    a = geodesic(1, 0, 0, F(1, 2))
    b = geodesic(0, 1, F(1, 4), 0)
    c = geodesic(2, 1, 0, 0)  # crosses b twice
    assert isinstance(is_edge(b, c), NonEdge)


def test_edge_rejects_touching():
    a = geodesic(1, 0, 0, F(1, 3))
    b = TorusCurve([pt(0, F(2, 3)), pt(F(1, 2), F(1, 3)), pt(1, F(2, 3))])
    assert isinstance(is_edge(a, b), NonEdge)


def test_nonvertex_raises():
    a = geodesic(1, 0, 0, F(1, 2))
    sep = TorusCurve(
        [pt(F(1, 8), F(1, 8)), pt(F(3, 8), F(1, 8)), pt(F(3, 8), F(3, 8)),
         pt(F(1, 8), F(3, 8)), pt(F(1, 8), F(1, 8))]
    )
    with pytest.raises(NotAVertex):
        is_edge(a, sep)


# ------------------------------------------------------------ clique types


def test_classify_necklace():
    rep = classify_clique3(*necklace_trio())
    assert rep.profile == (1, 1, 1)
    assert rep.type == NECKLACE
    assert len(set(rep.points)) == 3


def test_classify_bouquet():
    rep = classify_clique3(*bouquet_trio())
    assert rep.type == BOUQUET
    assert set(rep.points) == {(F(1, 2), F(1, 2))}


def test_classify_all_disjoint_and_two_pair():
    a = geodesic(1, 0, 0, F(1, 6))
    b = geodesic(1, 0, 0, F(1, 2))
    c = geodesic(1, 0, 0, F(5, 6))
    assert classify_clique3(a, b, c).type == ALL_DISJOINT
    rep = classify_clique3(a, geodesic(0, 1, F(1, 3), 0), c)
    assert rep.type == TWO_PAIR
    assert rep.profile == (1, 1, 0)


def test_classify_rejects_non_clique():
    a = geodesic(1, 0, 0, F(1, 2))
    b = geodesic(0, 1, F(1, 4), 0)
    c = geodesic(2, 1, 0, 0)
    with pytest.raises(NotAClique):
        classify_clique3(a, b, c)


def test_generated_cliques_classify(seeded=11):
    rng = random.Random(seeded)
    for typ in REALIZABLE_TYPES:
        for _ in range(3):
            trio = rand_clique3(rng, typ)
            assert classify_clique3(*trio).type == typ


# --------------------------------------------------------------- witnesses


@pytest.mark.parametrize("magnitude", [10**6, 10**12])
def test_classify_clique3_under_lattice_translations(magnitude):
    # moving one lift by an integer vector leaves its torus curve unchanged
    rng = random.Random(1400 + len(str(magnitude)))
    for _ in range(40):
        trio = rand_clique3(rng, rng.choice(REALIZABLE_TYPES))
        rep = classify_clique3(*trio)
        k = rng.randrange(3)
        v = tuple(rng.choice((-1, 1)) * rng.randint(magnitude // 2, magnitude) for _ in range(2))
        moved = trio[:k] + [trio[k].translate(v)] + trio[k + 1 :]
        got = classify_clique3(*moved)
        assert got.type == rep.type
        assert sorted(map(torus_rep, got.points)) == sorted(map(torus_rep, rep.points))


def test_necklace_witness_F_standard():
    Fset = necklace_witness_F(*necklace_trio())
    assert len(Fset) == 6
    classes = sorted(f.homology for f in Fset)
    assert classes == [(-1, -1), (-1, 0), (0, -1), (0, 1), (1, 0), (1, 1)]
    for f in Fset:
        check_vertex(f)


def test_necklace_witness_F_random_necklaces():
    rng = random.Random(5)
    for _ in range(3):
        trio = rand_clique3(rng, NECKLACE)
        Fset = necklace_witness_F(*trio)
        assert 4 <= len(Fset) <= 8
        for f in Fset:
            check_vertex(f)


def test_far_witness_properties():
    a = geodesic(1, 0, 0, F(1, 2))
    b = geodesic(0, 1, F(1, 2), 0)
    c = geodesic(1, 0, 0, F(1, 8))
    a2, b2 = far_witness(a, b, c)
    tag = is_edge(a2, b2)
    assert tag == TransverseEdge((F(1, 2), F(1, 2)))
    rep = classify_clique3(a2, b2, c)
    assert rep.type != BOUQUET
    # germ sharing: both witnesses pass through the edge point along the
    # original curves, so they meet a and b there too
    assert (F(1, 2), F(1, 2)) in [p for p, _ in intersect_curves(a2, b).points]


def test_far_witness_rejects_point_on_c():
    a, b, c = bouquet_trio()
    with pytest.raises(NotFar):
        far_witness(a, b, c)


# ---------------------------------------------------------- loop closing


def gate_across_horizontal():
    return [pt(F(1, 2), F(7, 16)), pt(F(1, 2), F(1, 2)), pt(F(1, 2), F(9, 16))]


def test_close_through_gate_crosses_its_curve_once():
    a = geodesic(1, 0, 0, F(1, 2))
    loop = close_through([gate_across_horizontal()], [a])
    assert loop is not None
    check_vertex(loop)
    assert is_edge(loop, a) == TransverseEdge(pt(F(1, 2), F(1, 2)))


def test_close_through_fails_between_parallel_curves():
    # the gate's ends lie in the two different bands between the curves,
    # so every way back crosses one of them
    a, a2 = geodesic(1, 0, 0, F(1, 2)), geodesic(1, 0, 0, F(1, 4))
    assert close_through([gate_across_horizontal()], [a, a2]) is None


# ---------------------------------------------------------------- refuting


def test_refute_rejects_necklace():
    with pytest.raises(IsNecklace):
        refute_N(*necklace_trio())


@pytest.mark.parametrize(
    "trio",
    [
        bouquet_trio(),
        (geodesic(1, 0, 0, F(1, 6)), geodesic(1, 0, 0, F(1, 2)),
         geodesic(1, 0, 0, F(5, 6))),
        (geodesic(1, 0, 0, F(1, 4)), geodesic(0, 1, F(1, 2), 0),
         geodesic(1, 0, 0, F(3, 4))),
    ],
    ids=["bouquet", "all_disjoint", "two_pair"],
)
def test_refute_basic(trio):
    d = refute_N(*trio)
    check_vertex(d)
    for u in trio:
        assert not isinstance(is_edge(d, u), NonEdge)
    faces = complement_components(list(trio))
    assert set(faces_met(d, list(trio), faces)) == set(range(len(faces)))


def test_refute_with_alphas():
    trio = (geodesic(1, 0, 0, F(1, 4)), geodesic(0, 1, F(1, 2), 0),
            geodesic(1, 0, 0, F(3, 4)))
    alphas = [geodesic(0, 1, F(1, 3), 0), geodesic(1, 1, F(1, 7), 0)]
    d = refute_N(*trio, alphas=alphas)
    check_vertex(d)
    for al in alphas:
        assert len(intersect_curves(d, al).transverse_points()) >= 2
    for u in trio:
        assert not isinstance(is_edge(d, u), NonEdge)


@pytest.mark.parametrize("order", [(0, 1, 2), (2, 1, 0), (0, 1), (1,)])
def test_routed_loop_locates_each_gate_end_once(order):
    # the first criterion-3 triple; (2, 1, 0) routes only after flipping
    # gates, and (0, 1) and (1,) build a gate set for each of five widths
    rng = random.Random(303)
    trio = rand_clique3(rng, rng.choice(["all_disjoint", "two_pair", "bouquet"]))
    _, loc = locator_of(list(trio))
    located = []
    plain = loc.locate

    def counting(p):
        located.append(p)
        return plain(p)

    loc.locate = counting
    _routed_loop(list(trio), order, loc)
    # gate ends of different gate sets differ, since each set has its own
    # width; so at most two calls per gate of each set means no repeats
    assert located
    assert max(Counter(located).values()) == 1
    assert len(located) <= 2 * len(order) * 5


# ------------------------------------------------------------ face location


def locator_of(curves):
    arr = curve_arrangement(curves)
    return arr.faces, _FaceLocator(arr)


def face_with_witness(faces, inside):
    """Index of the one face whose witness satisfies ``inside``."""
    (fi,) = [i for i, f in enumerate(faces) if inside(f.witness)]
    return fi


def horizontal_trio():
    return [geodesic(1, 0, 0, F(k, 6)) for k in (1, 3, 5)]


@pytest.mark.parametrize(
    "trio",
    [necklace_trio(), bouquet_trio(), horizontal_trio(),
     (geodesic(1, 0, 0, F(1, 4)), geodesic(0, 1, F(1, 2), 0),
      geodesic(1, 0, 0, F(3, 4)))],
    ids=["necklace", "bouquet", "all_disjoint", "two_pair"],
)
def test_locate_witnesses_and_their_translates(trio):
    faces, loc = locator_of(list(trio))
    for fi, face in enumerate(faces):
        assert loc.locate(face.witness) == fi
        for v in ((1, 0), (0, -1), (-2, 3)):
            moved = (face.witness[0] + v[0], face.witness[1] + v[1])
            assert loc.locate(moved) == fi


def test_locate_points_on_scaffold_lines():
    curves = horizontal_trio()
    faces, loc = locator_of(curves)
    vert, horiz = _scaffold_curves(curves)
    alpha, beta = vert.lift[0][0], horiz.lift[0][1]
    # the face between y = 1/6 and y = 1/2 holds both scaffold lines
    want = face_with_witness(faces, lambda w: F(1, 6) < w[1] < F(1, 2))
    assert F(1, 6) < beta < F(1, 2)
    for p in ((alpha, F(1, 3)), (F(1, 3), beta), (alpha, beta)):
        assert loc.locate(p) == want


def test_locate_inside_a_thin_face():
    gap = F(1, 1000)
    curves = [geodesic(1, 1, 0, F(1, 2)), geodesic(1, 1, 0, F(1, 2) + gap)]
    faces, loc = locator_of(curves)

    def in_gap(w):
        return F(1, 2) < (w[1] - w[0]) % 1 < F(1, 2) + gap

    want = face_with_witness(faces, in_gap)
    p = (F(1, 3), F(1, 3) + F(1, 2) + gap / 2)
    assert loc.locate(p) == want
    assert loc.locate(torus_rep((p[0] + 5, p[1] - 7))) == want


def test_locate_rejects_a_point_on_a_curve():
    _, loc = locator_of(horizontal_trio())
    with pytest.raises(WitnessSearchFailed):
        loc.locate((F(1, 3), F(1, 2)))


def bent_vertical_trio():
    """Three disjoint curves of homology (0, 1), two of them bent, so that
    the locator casts its rightward ray."""
    return [
        TorusCurve([pt(F(1, 6), 0), pt(F(1, 3), F(1, 2)), pt(F(1, 6), 1)]),
        TorusCurve([pt(F(1, 2), 0), pt(F(2, 3), F(1, 4)), pt(F(1, 2), F(3, 4)), pt(F(1, 2), 1)]),
        geodesic(0, 1, F(5, 6), 0),
    ]


def face_partition(curves, points):
    """The partition of ``points`` by merged face, as first-seen indices; a
    point on a curve gets None."""
    _, loc = locator_of(curves)
    seen, out = {}, []
    for p in points:
        try:
            fi = loc.locate(p)
        except WitnessSearchFailed:
            out.append(None)
            continue
        out.append(seen.setdefault(fi, len(seen)))
    return out


def affine(m, v, p):
    return (m[0][0] * p[0] + m[0][1] * p[1] + v[0], m[1][0] * p[0] + m[1][1] * p[1] + v[1])


@pytest.mark.parametrize(
    "trio",
    [necklace_trio(), bouquet_trio(), horizontal_trio(), bent_vertical_trio()],
    ids=["necklace", "bouquet", "all_disjoint", "vertical_disjoint"],
)
def test_face_partition_is_invariant_under_affine_images(trio):
    """Two points share a face exactly when their images under an element of
    SL(2,Z) x Q^2 share a face of the image curves; samples sit on the x and
    y coordinates of curve vertices, where rays run through vertices."""
    rng = random.Random(5)
    xs = sorted({torus_rep(p)[0] for c in trio for p in c.lift})
    ys = sorted({torus_rep(p)[1] for c in trio for p in c.lift})
    points = []
    for _ in range(36):
        x = rng.choice(xs) if rng.random() < 0.6 else F(rng.randrange(60), 60)
        y = rng.choice(ys) if rng.random() < 0.6 else F(rng.randrange(60), 60)
        points.append((x, y))
    base = face_partition(list(trio), points)
    assert len(set(base) - {None}) >= 2
    for m, v in (
        (((1, 1), (0, 1)), (F(1, 7), F(2, 5))),
        (((0, -1), (1, 0)), (F(0), F(1, 3))),
        (((2, 1), (1, 1)), (F(-3, 8), F(5, 9))),
    ):
        images = [TorusCurve([affine(m, v, p) for p in c.lift]) for c in trio]
        assert face_partition(images, [affine(m, v, p) for p in points]) == base


# ----------------------------------------------------------------- routing


def test_route_avoids_obstacles():
    obstacles = SegmentSet(
        geodesic(1, 0, 0, F(1, 2)).segments(), wrap_x=True, wrap_y=True
    )
    r = torus_route(obstacles, pt(F(1, 8), F(1, 8)), pt(F(7, 8), F(1, 4)))
    assert r is not None
    for i in range(len(r) - 1):
        assert not obstacles.hits(Segment(r[i], r[i + 1]))


def test_route_blocked_between_parallel_walls():
    # two homotopic walls trap the start in an annulus the end is outside of
    walls = SegmentSet(
        [s for c in (geodesic(0, 1, F(1, 4), 0), geodesic(0, 1, F(3, 4), 0))
         for s in c.segments()],
        wrap_x=True,
        wrap_y=True,
    )
    r = torus_route(walls, pt(F(1, 2), F(1, 2)), pt(F(7, 8), F(1, 2)))
    assert r is None


def test_route_commutes_with_integer_shifts():
    # torus_route(obs, s + v, e + v) is the route for (s, e) moved by v:
    # the grid cells wrap modulo n and the exact tests see translates.
    # Each obstacle is a class (1,0) curve with a V dipping towards y = 0,
    # and s and e sit on either side of the V, so routes bend around it.
    rng = random.Random(11)
    bent = 0
    for _ in range(6):
        x = F(rng.randrange(3, 7), 10)
        tip = F(rng.randrange(1, 8), 64)
        v_curve = TorusCurve(
            [pt(0, F(1, 2)), pt(x - F(1, 10), F(1, 2)), pt(x, tip),
             pt(x + F(1, 10), F(1, 2)), pt(1, F(1, 2))]
        )
        obstacles = SegmentSet(v_curve.segments(), wrap_x=True, wrap_y=True)
        # below the V's mid-height, where the arms are less than 1/20 from x
        y = tip + (F(1, 2) - tip) * F(rng.randrange(1, 5), 10)
        s, e = pt(x - F(1, 20), y), pt(x + F(1, 20), y)
        r = torus_route(obstacles, s, e)
        assert r is not None
        bent += len(r) > 2
        for v in ((1, 0), (0, -1), (-2, 3)):
            moved = torus_route(obstacles, vadd(s, v), vadd(e, v))
            assert moved == [vadd(p, v) for p in r]
    assert bent == 6
