"""Action of explicit torus homeomorphisms on curves.

A homeomorphism acts on vertices of the intersection graph; the action must
preserve edge tags, three-clique types, and crossing points exactly.  Three
map kinds are supported: integral linear maps with determinant +-1, rational
translations, and piecewise-linear maps given by vertex images on a
triangulation of the fundamental square.  All arithmetic is exact.

``pl_map`` computes a PL map's data once: its triangulation edges, each once
modulo Z^2, and each triangle's affine map.  ``apply`` cuts a lift at its
crossings with the translates of those edges, found through the float
prefilter ``bbox_candidate_pairs`` and decided exactly, and maps every point
by the affine map of the triangle that holds it modulo Z^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

from .geom_core import (
    Empty,
    PreparedSegments,
    RatPoint,
    Segment,
    bbox_candidate_pairs,
    cross,
    lattice_shifts,
    mat_apply,
    mat_mul,
    path_segments,
    segment_intersection,
    shift_segment,
    smul,
    vadd,
    vsub,
)
from .fine_graph import (
    DisjointEdge,
    NotAClique,
    TransverseEdge,
    check_vertex,
    clique3_of_tags,
    is_edge,
)
from .surfaces import TorusCurve, torus_rep

LINEAR = "linear"
TRANSLATION = "translation"
PL = "pl"


class InvalidMap(ValueError):
    pass


@dataclass(frozen=True)
class Triangulation:
    """A triangulation of the fundamental square with images per vertex.

    Vertices on opposite sides of the square must come in partner pairs
    whose images differ by the same deck translation, so the map descends
    to the torus with identity action on homology.  ``edges`` holds each
    triangulation edge once modulo Z^2 and orientation, as a ``Segment`` in
    the square, in a ``PreparedSegments``; ``affine`` holds each triangle's
    map x -> Mx + k as (M, k)."""

    vertices: tuple
    images: tuple
    triangles: tuple
    edges: tuple = field(compare=False, repr=False)
    affine: tuple = field(compare=False, repr=False)


@dataclass(frozen=True)
class TorusMap:
    kind: str
    matrix: Optional[tuple] = None
    shift: Optional[tuple] = None
    tri: Optional[Triangulation] = None

    def to_json(self):
        if self.kind == LINEAR:
            return {"kind": self.kind, "matrix": [list(r) for r in self.matrix]}
        if self.kind == TRANSLATION:
            return {"kind": self.kind, "shift": [str(v) for v in self.shift]}
        return {
            "kind": self.kind,
            "vertices": [[str(x), str(y)] for x, y in self.tri.vertices],
            "images": [[str(x), str(y)] for x, y in self.tri.images],
            "triangles": [list(t) for t in self.tri.triangles],
        }


def linear_map(m) -> TorusMap:
    m = ((int(m[0][0]), int(m[0][1])), (int(m[1][0]), int(m[1][1])))
    det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    if det not in (1, -1):
        raise InvalidMap("linear map must have determinant +-1")
    return TorusMap(kind=LINEAR, matrix=m)


def translation_map(v) -> TorusMap:
    return TorusMap(kind=TRANSLATION, shift=(Fraction(v[0]), Fraction(v[1])))


def _tri_area2(a, b, c) -> Fraction:
    return cross(vsub(b, a), vsub(c, a))


def _point_in_tri(p, a, b, c, strict=False):
    for u, v in ((a, b), (b, c), (c, a)):
        s = _tri_area2(u, v, p)
        if s < 0 or (strict and s == 0):
            return False
    return True


def _tris_overlap(t1, t2) -> bool:
    """Open-interior overlap of two positively oriented triangles."""
    for p in t1:
        if _point_in_tri(p, *t2, strict=True):
            return True
    for p in t2:
        if _point_in_tri(p, *t1, strict=True):
            return True
    e1 = [Segment(t1[i], t1[(i + 1) % 3]) for i in range(3)]
    e2 = [Segment(t2[i], t2[(i + 1) % 3]) for i in range(3)]
    for s in e1:
        for t in e2:
            res = segment_intersection(s, t)
            if not isinstance(res, Empty) and getattr(res, "interior1", False) \
                    and getattr(res, "interior2", False):
                return True
    # identical triangles have no strict vertex containment or proper edge
    # crossings, but they certainly overlap
    return sorted(t1) == sorted(t2)


def _tri_affine(src, img):
    """(M, k) such that x -> Mx + k sends the triangle src onto img."""
    (a, b, c), (ia, ib, ic) = src, img
    u, w, iu, iw = vsub(b, a), vsub(c, a), vsub(ib, ia), vsub(ic, ia)
    det = cross(u, w)
    m = tuple(((iu[r] * w[1] - iw[r] * u[1]) / det, (iw[r] * u[0] - iu[r] * w[0]) / det)
              for r in (0, 1))
    return m, vsub(ia, mat_apply(m, a))


def pl_map(vertices, images, triangles) -> TorusMap:
    vertices = tuple((Fraction(x), Fraction(y)) for x, y in vertices)
    images = tuple((Fraction(x), Fraction(y)) for x, y in images)
    triangles = tuple(tuple(t) for t in triangles)
    if len(vertices) != len(images):
        raise InvalidMap("each vertex needs exactly one image")
    for x, y in vertices:
        if not (0 <= x <= 1 and 0 <= y <= 1):
            raise InvalidMap("triangulation vertices must lie in the square")
    # deck compatibility: partner vertices across the square map to images
    # differing by the same unit translation
    idx = {v: i for i, v in enumerate(vertices)}
    for v, i in idx.items():
        for d in ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))):
            w = vadd(v, d)
            if w in idx:
                if vsub(images[idx[w]], images[i]) != d:
                    raise InvalidMap("boundary vertex images do not descend")
    area = Fraction(0)
    src = []
    img = []
    for t in triangles:
        a, b, c = (vertices[i] for i in t)
        s2 = _tri_area2(a, b, c)
        if s2 <= 0:
            raise InvalidMap("source triangles must be positively oriented")
        area += s2
        src.append((a, b, c))
        ia, ib, ic = (images[i] for i in t)
        if _tri_area2(ia, ib, ic) <= 0:
            raise InvalidMap("image triangle is degenerate or flipped")
        img.append((ia, ib, ic))
    if area != 2:
        raise InvalidMap("source triangles do not tile the square")
    for u, v in combinations(range(len(triangles)), 2):
        if _tris_overlap(src[u], src[v]):
            raise InvalidMap("source triangles overlap")
        if _tris_overlap(img[u], img[v]):
            raise InvalidMap("image triangles overlap")
    if sum(_tri_area2(*t) for t in img) != 2:
        raise InvalidMap("image triangles do not tile a fundamental domain")
    edges = {}
    for t in triangles:
        for i in range(3):
            a, b = sorted((vertices[t[i - 1]], vertices[t[i]]))
            s = (math.floor(a[0]), math.floor(a[1]))
            edges.setdefault((vsub(a, s), vsub(b, s)), Segment(a, b))
    affine = tuple(_tri_affine(s, t) for s, t in zip(src, img))
    return TorusMap(kind=PL, tri=Triangulation(
        vertices, images, triangles, PreparedSegments(tuple(edges.values())), affine))


def map_point(f: TorusMap, p: RatPoint) -> RatPoint:
    p = (Fraction(p[0]), Fraction(p[1]))
    if f.kind == LINEAR:
        return mat_apply(f.matrix, p)
    if f.kind == TRANSLATION:
        return vadd(p, f.shift)
    base = torus_rep(p)
    tri = f.tri
    for t, (m, k) in zip(tri.triangles, tri.affine):
        if _point_in_tri(base, *(tri.vertices[i] for i in t)):
            return vadd(vadd(mat_apply(m, base), k), vsub(p, base))
    raise InvalidMap("point escapes the triangulation")


def _grid_refine(path: Sequence[RatPoint], f: TorusMap) -> list[RatPoint]:
    """Subdivide a lifted path at every crossing with a triangulation edge
    (all integer translates), so each piece maps by one affine map."""
    segs = PreparedSegments(path_segments(path))
    cuts = [set() for _ in segs]
    shifts = lattice_shifts(segs.bounds, f.tri.edges.bounds)
    for v, i, j in bbox_candidate_pairs(segs, f.tri.edges, shifts):
        p, q = segs[i].p, segs[i].q
        e = shift_segment(f.tri.edges[j], v)
        d = cross(vsub(q, p), vsub(e.q, e.p))
        if d == 0:
            continue
        t1 = cross(vsub(e.p, p), vsub(e.q, e.p)) / d
        t2 = cross(vsub(e.p, p), vsub(q, p)) / d
        if 0 < t1 < 1 and 0 <= t2 <= 1:
            cuts[i].add(t1)
    out = []
    for s, ts in zip(segs, cuts):
        out.append(s.p)
        out.extend(vadd(s.p, smul(t1, vsub(s.q, s.p))) for t1 in sorted(ts))
    out.append(path[-1])
    return out


def apply(f: TorusMap, c: TorusCurve) -> TorusCurve:
    check_vertex(c)
    path = c.period_path()
    if f.kind == PL:
        path = _grid_refine(path, f)
    image = TorusCurve([map_point(f, p) for p in path])
    check_vertex(image)
    return image


def check_automorphism(f: TorusMap, universe: Sequence[TorusCurve]) -> list:
    """Violations of graph-automorphism behaviour on the universe; [] = pass.

    Checks every pair for preserved edge tag and equivariant crossing point,
    and every pairwise-adjacent triple for preserved clique type."""
    for c in universe:
        check_vertex(c)
    images = [apply(f, c) for c in universe]
    violations = []
    n = len(universe)
    tags, image_tags = {}, {}
    for i, j in combinations(range(n), 2):
        t1 = is_edge(universe[i], universe[j])
        t2 = is_edge(images[i], images[j])
        tags[(i, j)], image_tags[(i, j)] = t1, t2
        if type(t1) is not type(t2):
            violations.append(
                {"pair": [i, j], "kind": "edge_tag",
                 "before": type(t1).__name__, "after": type(t2).__name__}
            )
            continue
        if isinstance(t1, TransverseEdge):
            want = torus_rep(map_point(f, t1.point))
            if torus_rep(t2.point) != want:
                violations.append(
                    {"pair": [i, j], "kind": "edge_point",
                     "expected": [str(want[0]), str(want[1])],
                     "got": [str(torus_rep(t2.point)[0]),
                             str(torus_rep(t2.point)[1])]}
                )
    for i, j, k in combinations(range(n), 3):
        pairs = [(i, j), (i, k), (j, k)]
        pair_tags = [tags[q] for q in pairs]
        if any(not isinstance(t, (DisjointEdge, TransverseEdge)) for t in pair_tags):
            continue
        before = clique3_of_tags(*pair_tags).type
        try:
            after = clique3_of_tags(*(image_tags[q] for q in pairs)).type
        except NotAClique:
            after = "not_a_clique"
        if before != after:
            violations.append(
                {"triple": [i, j, k], "kind": "clique_type",
                 "before": before, "after": after}
            )
    return violations


def compose(f: TorusMap, g: TorusMap) -> TorusMap:
    """f after g, for the affine kinds."""
    if f.kind == LINEAR and g.kind == LINEAR:
        return linear_map(mat_mul(f.matrix, g.matrix))
    if f.kind == TRANSLATION and g.kind == TRANSLATION:
        return translation_map(vadd(f.shift, g.shift))
    raise InvalidMap("composition is only closed for matching affine kinds")
