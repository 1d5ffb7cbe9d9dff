import random
from fractions import Fraction

import pytest

from finegraph import homeo_action
from finegraph.generators import rand_vertex
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
from finegraph.surfaces import TorusCurve, torus_rep

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
