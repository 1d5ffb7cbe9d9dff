import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

from finegraph import homeo_action
from finegraph.fine_graph import TransverseEdge, is_edge
from finegraph.generators import REALIZABLE_TYPES, rand_clique3, rand_vertex
from finegraph.geom_core import cross, mat_apply, pt, smul, vadd, vsub
from finegraph.homeo_action import (
    InvalidMap,
    apply,
    check_automorphism,
    compose,
    linear_map,
    map_point,
    pl_map,
    translation_map,
)
from finegraph.surfaces import TorusCurve, complement_components, torus_curve_simple, torus_rep

F = Fraction


def geodesic(p, q, x0=0, y0=0):
    return TorusCurve([pt(x0, y0), (F(x0) + p, F(y0) + q)])


def shear_pl():
    """Identity on the square boundary, interior vertex pushed sideways."""
    verts = [
        (0, 0), (1, 0), (1, 1), (0, 1), (F(1, 2), F(1, 2)),
    ]
    imgs = list(verts)
    imgs[4] = (F(3, 4), F(1, 2))
    tris = [(0, 1, 4), (1, 2, 4), (2, 3, 4), (3, 0, 4)]
    return pl_map(verts, imgs, tris)


# ------------------------------------------------------------------ apply


def test_linear_acts_on_homology():
    f = linear_map([[1, 1], [0, 1]])
    c = geodesic(0, 1, F(1, 3), 0)
    assert apply(f, c).homology == (1, 1)


def test_translation_fixes_horizontal_setwise():
    f = translation_map((F(1, 3), 0))
    c = geodesic(1, 0, 0, F(1, 2))
    img = apply(f, c)
    assert img.homology == (1, 0)
    assert all(torus_rep(p)[1] == F(1, 2) for p in img.period_path())


def test_pl_shear_preserves_class():
    f = shear_pl()
    c = geodesic(0, 1, F(1, 4), 0)
    img = apply(f, c)
    assert img.homology == (0, 1)
    d = geodesic(1, 1, 0, F(1, 8))
    assert apply(f, d).homology == (1, 1)


def test_pl_map_moves_interior_points():
    f = shear_pl()
    assert map_point(f, (F(1, 2), F(1, 2))) == (F(3, 4), F(1, 2))
    assert map_point(f, (F(0), F(0))) == (F(0), F(0))
    # deck equivariance on lifts
    assert map_point(f, (F(3, 2), F(5, 2))) == (F(7, 4), F(5, 2))


def test_linear_rejects_singular():
    with pytest.raises(InvalidMap):
        linear_map([[2, 0], [0, 1]])


def test_pl_rejects_non_bijection():
    verts = [(0, 0), (1, 0), (1, 1), (0, 1), (F(1, 2), F(1, 2))]
    imgs = list(verts)
    imgs[4] = (F(3, 2), F(1, 2))  # interior vertex pushed outside: folds
    tris = [(0, 1, 4), (1, 2, 4), (2, 3, 4), (3, 0, 4)]
    with pytest.raises(InvalidMap):
        pl_map(verts, imgs, tris)


def test_pl_rejects_incompatible_boundary():
    verts = [(0, 0), (1, 0), (1, 1), (0, 1)]
    imgs = [(0, 0), (1, 0), (1, F(3, 2)), (0, 1)]
    tris = [(0, 1, 2), (0, 2, 3)]
    with pytest.raises(InvalidMap):
        pl_map(verts, imgs, tris)


# -------------------------------------------------------------- the check


def universe20(seed=3):
    rng = random.Random(seed)
    out = [
        geodesic(1, 0, 0, F(1, 2)),
        geodesic(0, 1, F(1, 2), 0),
        geodesic(1, 1, 0, 0),
        geodesic(1, -1, 0, F(1, 4)),
    ]
    while len(out) < 20:
        out.append(rand_vertex(rng))
    return out


def test_rotation_is_automorphism():
    viol = check_automorphism(linear_map([[0, -1], [1, 0]]), universe20())
    assert viol == []


def test_translation_is_automorphism():
    viol = check_automorphism(translation_map((F(2, 7), F(1, 5))), universe20(9))
    assert viol == []


def test_pl_shear_is_automorphism():
    viol = check_automorphism(shear_pl(), universe20(11)[:10])
    assert viol == []


@pytest.mark.parametrize(
    "image, after",
    [(geodesic(1, 1, 0, F(1, 4)), "necklace"), (geodesic(2, 1), "not_a_clique")],
)
def test_clique_type_violation_reports_image_type(monkeypatch, image, after):
    # a bouquet whose third curve is sent to a curve that no homeomorphism
    # fixing the other two could give
    bouquet = [geodesic(1, 0, 0, F(1, 2)), geodesic(0, 1, F(1, 2), 0), geodesic(1, 1)]
    images = {c.lift: c for c in bouquet}
    images[bouquet[2].lift] = image
    monkeypatch.setattr(homeo_action, "apply", lambda f, c: images[c.lift])
    viol = check_automorphism(linear_map([[1, 0], [0, 1]]), bouquet)
    assert [v for v in viol if v["kind"] == "clique_type"] == [
        {"triple": [0, 1, 2], "kind": "clique_type",
         "before": "bouquet", "after": after}
    ]


# ------------------------------------------- symmetry oracles: SL(2,Z) x Q^2

_SL2_GENERATORS = ([[0, -1], [1, 0]], [[1, 1], [0, 1]], [[1, -1], [0, 1]], [[1, 0], [1, 1]])


def _rand_affine(rng):
    """x -> Mx + v for a random M in SL(2,Z) and v in Q^2, as the pair of
    maps (linear, translation)."""
    m = [[1, 0], [0, 1]]
    for _ in range(rng.randrange(1, 4)):
        g = rng.choice(_SL2_GENERATORS)
        m = [[sum(m[i][k] * g[k][j] for k in range(2)) for j in range(2)] for i in range(2)]
    v = (F(rng.randrange(1009), 1009), F(rng.randrange(1009), 1009))
    return linear_map(m), translation_map(v)


def _image(f, c):
    """c mapped point by point; unlike ``apply`` it takes non-simple curves."""
    lin, shift = f
    return TorusCurve([map_point(shift, map_point(lin, p)) for p in c.period_path()])


def _apply(f, c):
    lin, shift = f
    return apply(shift, apply(lin, c))


def test_simplicity_commutes_with_affine_maps():
    rng = random.Random(5)
    seen = set()
    for _ in range(120):
        h = rng.choice([(1, 0), (0, 1), (1, 1), (2, 1), (1, -2), (2, 0)])
        p0 = (F(rng.randrange(13), 13), F(rng.randrange(17), 17))
        pts = [p0]
        for k in range(1, rng.randrange(2, 5)):
            jitter = (F(rng.randrange(-3, 4), 7), F(rng.randrange(-3, 4), 11))
            pts.append((p0[0] + F(k, 4) * h[0] + jitter[0], p0[1] + F(k, 4) * h[1] + jitter[1]))
        pts.append((p0[0] + h[0], p0[1] + h[1]))
        c = TorusCurve(pts)
        f = _rand_affine(rng)
        simple = torus_curve_simple(c)
        seen.add(simple)
        assert torus_curve_simple(_image(f, c)) == simple
        if simple:
            assert _apply(f, c) == _image(f, c)
    assert seen == {True, False}


def test_edge_tags_commute_with_affine_maps():
    rng = random.Random(6)
    seen = set()
    for typ in REALIZABLE_TYPES * 4:
        curves = rand_clique3(rng, typ) + [rand_vertex(rng)]
        f = _rand_affine(rng)
        images = [_apply(f, c) for c in curves]
        for i, j in [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)]:
            t1, t2 = is_edge(curves[i], curves[j]), is_edge(images[i], images[j])
            seen.add(type(t1).__name__)
            assert type(t1) is type(t2)
            if isinstance(t1, TransverseEdge):
                lin, shift = f
                want = map_point(shift, map_point(lin, t1.point))
                assert torus_rep(t2.point) == torus_rep(want)
    assert seen == {"DisjointEdge", "TransverseEdge", "NonEdge"}


def test_face_count_commutes_with_affine_maps():
    rng = random.Random(7)
    seen = set()
    for typ in REALIZABLE_TYPES * 4:
        curves = rand_clique3(rng, typ) + [rand_vertex(rng)]
        f = _rand_affine(rng)
        for family in (curves[:2], curves[:3], curves):
            n = len(complement_components(family))
            seen.add(n)
            assert len(complement_components([_apply(f, c) for c in family])) == n
    assert len(seen) >= 5


# ------------------------------------------- PL maps against brute force


def _oracle_refine(path, f):
    """Brute-force refinement: every directed triangle edge against every
    integer translate of each segment's box, in Fraction arithmetic."""
    lines = set()
    tri = f.tri
    for t in tri.triangles:
        for i in range(3):
            lines.add((tri.vertices[t[i]], tri.vertices[t[(i + 1) % 3]]))
    out = []
    for i in range(len(path) - 1):
        p, q = path[i], path[i + 1]
        cuts = {F(0)}
        lo = min(p[0], q[0]), min(p[1], q[1])
        hi = max(p[0], q[0]), max(p[1], q[1])
        for a, b in lines:
            for kx in range(math.floor(lo[0] - 1), math.ceil(hi[0] + 1)):
                for ky in range(math.floor(lo[1] - 1), math.ceil(hi[1] + 1)):
                    aa = (a[0] + kx, a[1] + ky)
                    bb = (b[0] + kx, b[1] + ky)
                    d = cross(vsub(q, p), vsub(bb, aa))
                    if d == 0:
                        continue
                    t1 = cross(vsub(aa, p), vsub(bb, aa)) / d
                    t2 = cross(vsub(aa, p), vsub(q, p)) / d
                    if 0 < t1 < 1 and 0 <= t2 <= 1:
                        cuts.add(t1)
        out.append(p)
        for t1 in sorted(cuts - {F(0)}):
            out.append(vadd(p, smul(t1, vsub(q, p))))
    out.append(path[-1])
    return out


def _oracle_point(f, p):
    """Barycentric weights in the first closed triangle holding p mod Z^2."""
    def area2(a, b, c):
        return cross(vsub(b, a), vsub(c, a))

    base = torus_rep(p)
    tri = f.tri
    for t in tri.triangles:
        a, b, c = (tri.vertices[i] for i in t)
        if min(area2(a, b, base), area2(b, c, base), area2(c, a, base)) >= 0:
            den = area2(a, b, c)
            wa, wb = area2(base, b, c) / den, area2(a, base, c) / den
            ia, ib, ic = (tri.images[i] for i in t)
            out = tuple(wa * ia[r] + wb * ib[r] + (1 - wa - wb) * ic[r] for r in (0, 1))
            return vadd(out, vsub(p, base))
    raise AssertionError("point escapes the triangulation")


def rand_grid_pl(rng, g):
    """Identity on the boundary of a g x g grid, interior vertices jittered
    by under a quarter of the spacing, each square cut along a random
    diagonal."""
    coords = [F(i, g) for i in range(g + 1)]
    verts = [(x, y) for y in coords for x in coords]
    idx = {v: i for i, v in enumerate(verts)}
    tris = []
    for i in range(g):
        for j in range(g):
            a, b = idx[(coords[i], coords[j])], idx[(coords[i + 1], coords[j])]
            c, d = idx[(coords[i + 1], coords[j + 1])], idx[(coords[i], coords[j + 1])]
            tris.extend([(a, b, c), (a, c, d)] if rng.random() < 0.5 else [(a, b, d), (b, c, d)])
    while True:
        imgs = list(verts)
        for vy in coords[1:-1]:
            for vx in coords[1:-1]:
                jx, jy = (F(rng.randrange(-15, 16), 64 * g) for _ in range(2))
                imgs[idx[(vx, vy)]] = (vx + jx, vy + jy)
        try:
            return pl_map(verts, imgs, tris)
        except InvalidMap:
            continue


def _pl_curves(rng, g):
    def r():
        return F(rng.randrange(1, 97), 97)

    v = (F(rng.randrange(1, g), g), F(rng.randrange(1, g), g))
    n = (r() - 3, r() - 2)
    return [
        # through triangulation vertices
        TorusCurve([v, (v[0] + 1, v[1] + 1)]),
        TorusCurve([v, (v[0] + r() / 8, v[1] + F(1, 2)), (v[0], v[1] + 1)]),
        # along a horizontal grid line and along the diagonals
        geodesic(1, 0, 0, F(rng.randrange(g), g)),
        geodesic(1, 1, 0, 0),
        geodesic(1, -1, 0, 1),
        # homology (3,1) and (1,-2)
        geodesic(3, 1, r(), r()),
        geodesic(1, -2, r(), r()),
        # starting at negative coordinates
        geodesic(2, 1, *n),
        TorusCurve([n, (n[0] + F(1, 2), n[1] + r() / 8), (n[0] + 1, n[1])]),
    ]


@pytest.mark.parametrize("g", [2, 3, 4])
def test_pl_refine_and_apply_match_brute_force(g):
    rng = random.Random(40 + g)
    for _ in range(2):
        f = rand_grid_pl(rng, g)
        for c in _pl_curves(rng, g):
            path = c.period_path()
            refined = _oracle_refine(path, f)
            assert homeo_action._grid_refine(path, f) == refined
            assert apply(f, c) == TorusCurve([_oracle_point(f, p) for p in refined])


@pytest.mark.parametrize("g", [2, 3, 4])
def test_pl_maps_respect_deck_translations_and_glue(g):
    rng = random.Random(50 + g)
    f = rand_grid_pl(rng, g)
    for c in _pl_curves(rng, g):
        v = (rng.randrange(-3, 4), rng.randrange(-3, 4))
        assert apply(f, c.translate(v)) == apply(f, c).translate(v)
    tri = f.tri
    for (x, y), (ix, iy) in zip(tri.vertices, tri.images):
        for v in ((0, 0), (1, -2), (-3, 1)):
            assert map_point(f, (x + v[0], y + v[1])) == (ix + v[0], iy + v[1])
    # adjacent triangles' stored maps agree on their shared edge, also
    # across the sides of the square up to the deck shift
    edges = []
    for t, (m, k) in zip(tri.triangles, tri.affine):
        for i in range(3):
            a, b = sorted((tri.vertices[t[i - 1]], tri.vertices[t[i]]))
            edges.append((a, b, m, k))
    shared = 0
    for (a, b, m, k), (a2, b2, m2, k2) in combinations(edges, 2):
        s = vsub(a, a2)
        if vsub(b, b2) != s or s[0].denominator != 1 or s[1].denominator != 1:
            continue
        shared += 1
        for lam in (F(0), F(1, 3), F(1, 2), F(1)):
            x = vadd(a, smul(lam, vsub(b, a)))
            assert vadd(mat_apply(m, x), k) == vadd(vadd(mat_apply(m2, vsub(x, s)), k2), s)
    assert shared == 3 * g * g


# ----------------------------------------------------------- functoriality


def test_functoriality_linear():
    f = linear_map([[1, 1], [0, 1]])
    g = linear_map([[0, -1], [1, 0]])
    c = geodesic(1, 0, 0, F(1, 3))
    assert apply(compose(f, g), c) == apply(f, apply(g, c))


def test_functoriality_translation():
    f = translation_map((F(1, 3), F(0)))
    g = translation_map((F(1, 5), F(1, 2)))
    c = geodesic(1, 1, F(1, 7), 0)
    assert apply(compose(f, g), c) == apply(f, apply(g, c))


def test_compose_rejects_mixed_kinds():
    with pytest.raises(InvalidMap):
        compose(linear_map([[1, 0], [0, 1]]), shear_pl())


def test_map_json_round_trips_fields():
    f = linear_map([[1, 1], [0, 1]])
    assert f.to_json()["matrix"] == [[1, 1], [0, 1]]
    t = translation_map((F(1, 3), 0))
    assert t.to_json()["shift"] == ["1/3", "0"]
    assert "triangles" in shear_pl().to_json()
