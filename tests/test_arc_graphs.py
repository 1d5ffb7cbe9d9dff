import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from finegraph.arc_graphs import (
    ChainCertificate,
    NonGenericInput,
    PointNotOnCurve,
    PointsDiffer,
    _arc_crossings,
    _arc_simple,
    _curves_coincide,
    _removal_ok,
    bouquet_chain,
    cut_along,
    unicorn_path,
    verify_chain,
)
from finegraph.fine_graph import NotAClique, classify_clique3
from finegraph.generators import rand_chain_triple
from finegraph.geom_core import (
    Empty,
    PointHit,
    Segment,
    path_segments,
    pt,
    segment_intersection,
    shift_segment,
)
from finegraph.surfaces import TorusCurve, lift_on_path, shifts_meeting, torus_rep

F = Fraction


def horizontal(y):
    return TorusCurve([pt(0, y), pt(1, y)])


def vertical(x):
    return TorusCurve([pt(x, 0), pt(x, 1)])


# -------------------------------------------------------------- cut surface


def test_cut_along_origin():
    S = cut_along(horizontal(0), (F(0), F(0)))
    lo, hi = S.marked
    assert torus_rep(lo) == (0, 0) and torus_rep(hi) == (0, 0)
    assert hi[1] - lo[1] == 1


def test_cut_along_rejects_point_off_curve():
    with pytest.raises(PointNotOnCurve):
        cut_along(horizontal(F(1, 2)), (F(0), F(0)))


def test_chart_round_trip():
    S = cut_along(horizontal(0), (F(0), F(0)))
    rng = random.Random(3)
    for _ in range(100):
        p = (F(rng.randrange(0, 97), 97), F(rng.randrange(1, 89), 89))
        q = S.chart(p)
        assert S.chart_inv(q) == torus_rep(p)


def test_chart_rejects_point_on_cut():
    S = cut_along(horizontal(0), (F(0), F(0)))
    with pytest.raises(PointNotOnCurve):
        S.chart((F(1, 3), F(0)))


# a cut of homology (1, 0) that folds back in x, so the vertical line
# through a point can meet one lift of it three times
BENT_CUT = TorusCurve(
    [pt(0, F(1, 4)), pt(F(3, 5), F(1, 5)), pt(F(2, 5), F(1, 2)), pt(1, F(1, 4))]
)


def _lift_parity(r, path, j):
    """Parity of the crossings of a steep ray from r, a point off the lift,
    down past the lift path + (0, j), counted over that lift's translates
    by (i, 0); no vertex may lie on the ray's line."""
    ys = [y for _, y in path]
    far = (r[0] + F(1, 7919) * (r[1] - min(ys) - j + 2), min(ys) + j - 2)

    def ccw(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    count = 0
    for i in range(-4, 5):
        lift = [(x + i, y + j) for x, y in path]
        for a, b in zip(lift, lift[1:]):
            d1, d2 = ccw(a, b, r), ccw(a, b, far)
            d3, d4 = ccw(r, far, a), ccw(r, far, b)
            assert 0 not in (d3, d4)
            count += d1 * d2 < 0 and d3 * d4 < 0
    return count % 2


def test_chart_lands_between_the_lifts_at_cut_vertex_abscissae():
    S = cut_along(BENT_CUT, (F(0), F(1, 4)))
    base = S.strip_base
    vertex_ys = {p[1] for p in BENT_CUT.lift}
    on_cut = 0
    for x in sorted({p[0] for p in BENT_CUT.lift}):
        for y in sorted({F(k, 24) + F(1, 48) for k in range(24)} | vertex_ys):
            p = (x, y)
            if lift_on_path(p, base) is not None:
                on_cut += 1
                with pytest.raises(PointNotOnCurve):
                    S.chart(p)
                continue
            r = S.chart(p)
            assert S.chart_inv(r) == torus_rep(p)
            assert _lift_parity(r, base, 0) == 1 and _lift_parity(r, base, 1) == 0
    assert on_cut == 4


def test_chart_rejects_point_on_bent_cut():
    S = cut_along(BENT_CUT, (F(0), F(1, 4)))
    for p in ((F(1, 2), F(7, 20)), (F(3, 5), F(1, 5)), (F(1, 3), F(2, 9)), (F(7, 5), F(-1, 2))):
        with pytest.raises(PointNotOnCurve):
            S.chart(p)


def test_vertical_becomes_arc_joining_marked_points():
    S = cut_along(horizontal(0), (F(0), F(0)))
    arc = S.curve_to_arc(vertical(0))
    assert arc[0] == S.marked[0]
    assert arc[-1] == S.marked[1]
    back = S.arc_to_curve(arc)
    assert back.homology in ((0, 1), (0, -1))


def test_curve_to_arc_rejects_double_crossing():
    S = cut_along(horizontal(0), (F(0), F(0)))
    zig = TorusCurve(
        [pt(0, 0), pt(F(1, 4), F(1, 2)), pt(F(1, 2), 0), pt(F(3, 4), F(-1, 2)),
         pt(1, 0)]
    )
    with pytest.raises(NonGenericInput):
        S.curve_to_arc(zig)


def test_curve_to_arc_rejects_wrong_point():
    S = cut_along(horizontal(0), (F(0), F(0)))
    with pytest.raises(PointsDiffer):
        S.curve_to_arc(vertical(F(1, 2)))


# ------------------------------------------------------------ unicorn paths


def zig_arc(S, x0, xs):
    pts = [(x0, F(1, 2))]
    for i, x in enumerate(xs):
        pts.append((x, F(1, 2) + F(i + 1, len(xs) + 1)))
    pts.append((x0, F(3, 2)))
    return S.curve_to_arc(TorusCurve(pts))


def assert_valid_path(S, path):
    boundary = S.boundary_set()
    for arc in path:
        assert _arc_simple(arc)
    for u, v in zip(path, path[1:]):
        assert _arc_crossings(u, v) == []


def test_unicorn_disjoint_arcs():
    S = cut_along(horizontal(F(1, 2)), (F(1, 4), F(1, 2)))
    g1 = S.curve_to_arc(vertical(F(1, 4)))
    g2 = zig_arc(S, F(1, 4), [F(1, 8)])
    path = unicorn_path(S, g1, g2)
    assert len(path) == 2
    assert_valid_path(S, path)


def test_unicorn_one_crossing():
    S = cut_along(horizontal(F(1, 2)), (F(1, 4), F(1, 2)))
    g1 = S.curve_to_arc(vertical(F(1, 4)))
    g2 = zig_arc(S, F(1, 4), [F(3, 8), F(1, 8)])
    assert len(_arc_crossings(g1, g2)) == 1
    path = unicorn_path(S, g1, g2)
    assert len(path) <= 4
    assert_valid_path(S, path)


def test_unicorn_ten_crossings_strictly_decreasing():
    S = cut_along(horizontal(F(1, 2)), (F(1, 4), F(1, 2)))
    g1 = S.curve_to_arc(vertical(F(1, 4)))
    xs = [F(3, 8) if i % 2 == 0 else F(1, 8) for i in range(11)]
    g2 = zig_arc(S, F(1, 4), xs)
    assert len(_arc_crossings(g1, g2)) == 10
    path = unicorn_path(S, g1, g2)
    assert_valid_path(S, path)
    # crossing counts with g1 strictly decrease from g2 back toward g1
    counts = [len(_arc_crossings(path[0], arc)) for arc in path[1:]]
    assert counts == sorted(counts) and len(set(counts)) == len(counts)
    assert counts[-1] == 10


def test_removal_ok_checks_translates_of_the_new_segment():
    # the shortcut moved by (-2, 0) crosses the arc, so the arc is not
    # simple and the removal must be refused
    arc = [(F(31, 8), F(7, 8)), (F(4), F(5, 8)), (F(1, 2), F(1))]
    assert not _arc_simple(arc)
    assert not _removal_ok(arc, Segment(arc[0], arc[1]))


# ------------------------------------------------------------ bouquet chains


def test_chain_identical_curves():
    a = horizontal(F(1, 2))
    b = vertical(F(1, 4))
    cert = bouquet_chain(a, b, b)
    assert len(cert.edges) == 1 and cert.moves == []
    assert verify_chain(cert) == []


def test_curves_coincide_up_to_translation_and_start_vertex():
    c = TorusCurve([pt(F(1, 4), 0), pt(F(1, 2), F(1, 3)), pt(F(1, 4), 1)])
    assert _curves_coincide(c, TorusCurve(c.lift))
    assert _curves_coincide(c, c.translate((1, 0)))
    restarted = TorusCurve([pt(F(1, 2), F(1, 3)), pt(F(1, 4), 1), pt(F(1, 2), F(4, 3))])
    assert restarted != c
    assert _curves_coincide(c, restarted) and _curves_coincide(restarted, c)
    assert not _curves_coincide(c, vertical(F(1, 4)))
    assert not _curves_coincide(vertical(F(1, 4)), c)


def test_chain_rejects_different_points():
    a = horizontal(F(1, 2))
    with pytest.raises(PointsDiffer):
        bouquet_chain(a, vertical(F(1, 4)), vertical(F(3, 4)))


def test_chain_touching_pair_inserts_auxiliary():
    a = horizontal(F(1, 2))
    b = vertical(F(1, 4))
    c = TorusCurve([pt(F(1, 8), 0), pt(F(1, 4), F(1, 2)), pt(F(1, 8), 1)])
    cert = bouquet_chain(a, b, c)
    # both germs of c sit on one side of b, so one auxiliary hop is needed
    assert len(cert.moves) == 2
    assert verify_chain(cert) == []


def test_chain_many_extra_crossings():
    a = horizontal(F(1, 2))
    b = vertical(F(1, 4))
    pts = [pt(F(1, 4), F(1, 2))]
    xs = [F(3, 8) if i % 2 == 0 else F(1, 8) for i in range(6)]
    for i, x in enumerate(xs):
        pts.append((x, F(1, 2) + F(i + 1, len(xs) + 1)))
    pts.append(pt(F(1, 4), F(3, 2)))
    c = TorusCurve(pts)
    cert = bouquet_chain(a, b, c)
    assert verify_chain(cert) == []
    for m in cert.moves:
        assert classify_clique3(*m).type == "bouquet"
    x = torus_rep(cert.edges[0].point)
    assert all(torus_rep(e.point) == x for e in cert.edges)


def test_chain_random_triples():
    rng = random.Random(19)
    for _ in range(5):
        trio = rand_chain_triple(rng)
        cert = bouquet_chain(*trio)
        assert verify_chain(cert) == []


def test_verifier_rejects_tampered_chain():
    a = horizontal(F(1, 2))
    b = vertical(F(1, 4))
    c = TorusCurve([pt(F(1, 8), 0), pt(F(1, 4), F(1, 2)), pt(F(1, 8), 1)])
    cert = bouquet_chain(a, b, c)
    bad = ChainCertificate(edges=cert.edges, moves=list(cert.moves))
    bad.moves[0] = (a, b, vertical(F(3, 4)))
    assert verify_chain(bad) != []


# ------------------------------------------- strip contacts by brute force

strip_x = st.fractions(min_value=-1, max_value=2, max_denominator=4)
strip_y = st.fractions(min_value=0, max_value=1, max_denominator=4)


@st.composite
def strip_arcs(draw):
    """Open PL paths in the strip 0 <= y <= 1 on a coarse grid.  A vertex
    may repeat an earlier one moved by (k, 0) or sit inside an earlier
    segment, so shared endpoints, T-junctions and overlaps occur, also
    between deck translates."""
    pts = [draw(st.tuples(strip_x, strip_y))]
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(("fresh", "shifted", "tee")))
        if kind == "shifted":
            p = draw(st.sampled_from(pts))
            pts.append((p[0] + draw(st.integers(-2, 2)), p[1]))
        elif kind == "tee" and len(pts) >= 2:
            i = draw(st.integers(0, len(pts) - 2))
            (px, py), (qx, qy) = pts[i], pts[i + 1]
            t = draw(st.sampled_from((F(1, 3), F(1, 2), F(2, 3))))
            pts.append((px + t * (qx - px), py + t * (qy - py)))
        else:
            pts.append(draw(st.tuples(strip_x, strip_y)))
    return pts


def _deck_range(*arcs):
    xs = [p[0] for arc in arcs for p in arc]
    span = int(max(xs) - min(xs)) + 1
    return range(-span - 1, span + 2)


def _brute_simple(arc):
    segs = path_segments(arc)
    for k in _deck_range(arc):
        for i, s in enumerate(segs):
            for j, t in enumerate(segs):
                if k == 0 and j <= i:
                    continue
                res = segment_intersection(s, shift_segment(t, (k, 0)))
                if isinstance(res, Empty):
                    continue
                if k == 0 and j == i + 1 and isinstance(res, PointHit) and res.point == s.q:
                    continue
                return False
    return True


@given(strip_arcs().filter(path_segments))
def test_arc_simple_matches_brute_force(arc):
    assert _arc_simple(arc) == _brute_simple(arc)


@given(strip_arcs(), strip_arcs())
def test_shifts_meeting_matches_brute_force(u, v):
    su, sv = path_segments(u), path_segments(v)
    want = {
        k
        for k in _deck_range(u, v)
        for s in su
        for t in sv
        if not isinstance(segment_intersection(shift_segment(s, (k, 0)), t), Empty)
    }
    assert shifts_meeting(su, sv, [(k, 0) for k in _deck_range(u, v)]) == want
