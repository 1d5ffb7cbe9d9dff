import random
from fractions import Fraction

import pytest

from finegraph import homeo_action
from finegraph.fine_graph import TransverseEdge, is_edge
from finegraph.generators import REALIZABLE_TYPES, rand_clique3, rand_vertex
from finegraph.geom_core import pt
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
