"""Seeded construction of random vertices and 3-cliques.

Everything is driven by a caller-supplied random.Random so corpora are
reproducible from a single seed.  All outputs are verified (simple,
nonseparating, requested clique type) before being returned; generation
retries with fresh randomness on the rare degenerate draw.

One profile is absent by necessity: a 3-clique with exactly one crossing
pair cannot exist on the torus.  Two curves meeting in one transverse point
have homology classes with determinant +-1, and a third curve disjoint from
both would need a class parallel to each, hence zero.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Optional

from .fine_graph import (
    ALL_DISJOINT,
    BOUQUET,
    NECKLACE,
    TWO_PAIR,
    NotAClique,
    NotAVertex,
    TransverseEdge,
    check_vertex,
    classify_clique3,
    is_edge,
)
from .geom_core import mat_apply, pt, vadd
from .surfaces import TorusCurve, torus_curve_simple, torus_rep

PRIMITIVE_CLASSES = [(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2)]


def _rand_frac(rng: random.Random, den_max: int = 40) -> Fraction:
    den = rng.randrange(5, den_max)
    return Fraction(rng.randrange(0, den), den)


def _wiggle_geodesic(
    rng: random.Random,
    cls: tuple[int, int],
    offset: tuple[Fraction, Fraction],
    bends: int,
    amp: Fraction,
) -> TorusCurve:
    """A simple curve of the given class: the straight lift from offset,
    with interior vertices jittered perpendicular to the direction."""
    p, q = cls
    start = offset
    end = (offset[0] + p, offset[1] + q)
    n = bends + 1
    pts = [start]
    for i in range(1, n):
        t = Fraction(i, n)
        base = (start[0] + t * p, start[1] + t * q)
        j = amp * Fraction(rng.randrange(-8, 9), 8)
        # perpendicular jitter keeps the lift monotone along the class
        pts.append((base[0] - j * q, base[1] + j * p))
    pts.append(end)
    return TorusCurve(pts)


def rand_vertex(
    rng: random.Random,
    cls: Optional[tuple[int, int]] = None,
    bends: Optional[int] = None,
    amp: Fraction = Fraction(1, 16),
) -> TorusCurve:
    for _ in range(50):
        c = cls if cls is not None else rng.choice(PRIMITIVE_CLASSES)
        b = bends if bends is not None else rng.randrange(0, 4)
        cand = _wiggle_geodesic(
            rng, c, (_rand_frac(rng), _rand_frac(rng)), b, amp
        )
        if torus_curve_simple(cand) and cand.homology != (0, 0):
            return cand
    raise RuntimeError("vertex generation failed")


def _rand_sl2(rng: random.Random, steps: int = 3):
    m = [[1, 0], [0, 1]]

    def mul(a, b):
        return [
            [a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]],
            [a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]],
        ]

    s = [[0, -1], [1, 0]]
    for _ in range(steps):
        if rng.random() < 0.5:
            m = mul(m, s)
        else:
            k = rng.randrange(-2, 3)
            m = mul(m, [[1, k], [0, 1]])
    return m


def _apply_affine(curve: TorusCurve, m, v) -> TorusCurve:
    return TorusCurve([vadd(mat_apply(m, p), v) for p in curve.period_path()])


def _standard_necklace():
    a = TorusCurve([pt(0, Fraction(1, 2)), pt(1, Fraction(1, 2))])
    b = TorusCurve([pt(Fraction(1, 2), 0), pt(Fraction(1, 2), 1)])
    c = TorusCurve([pt(0, Fraction(1, 4)), pt(1, Fraction(5, 4))])
    return a, b, c


def _gen_all_disjoint(rng: random.Random):
    cls = rng.choice(PRIMITIVE_CLASSES)
    offs = sorted(rng.sample(range(1, 12), 3))
    amp = Fraction(1, 48)
    return [
        _wiggle_geodesic(
            rng,
            cls,
            (Fraction(0), Fraction(o, 12)) if cls != (0, 1) else (Fraction(o, 12), Fraction(0)),
            rng.randrange(0, 3),
            amp,
        )
        for o in offs
    ]


def _gen_two_pair(rng: random.Random):
    o1, o2 = sorted(rng.sample(range(1, 8), 2))
    a = _wiggle_geodesic(
        rng, (1, 0), (Fraction(0), Fraction(o1, 8)), rng.randrange(0, 3), Fraction(1, 40)
    )
    c = _wiggle_geodesic(
        rng, (1, 0), (Fraction(0), Fraction(o2, 8)), rng.randrange(0, 3), Fraction(1, 40)
    )
    x0 = _rand_frac(rng)
    k = rng.choice([-1, 0, 1])
    b = TorusCurve([(x0, Fraction(0)), (_rand_frac(rng), Fraction(1, 2)), (x0 + k, Fraction(1))])
    m = _rand_sl2(rng)
    v = (_rand_frac(rng), _rand_frac(rng))
    return [_apply_affine(u, m, v) for u in (a, b, c)]


def _gen_necklace(rng: random.Random):
    m = _rand_sl2(rng)
    v = (_rand_frac(rng), _rand_frac(rng))
    return [_apply_affine(u, m, v) for u in _standard_necklace()]


def _gen_bouquet(rng: random.Random):
    p = (_rand_frac(rng), _rand_frac(rng))
    curves = []
    for cls in ((1, 0), (0, 1), (1, 1)):
        curves.append(
            TorusCurve([p, (p[0] + cls[0], p[1] + cls[1])])
        )
    m = _rand_sl2(rng)
    return [_apply_affine(u, m, (Fraction(0), Fraction(0))) for u in curves]


_GEN = {
    ALL_DISJOINT: _gen_all_disjoint,
    TWO_PAIR: _gen_two_pair,
    NECKLACE: _gen_necklace,
    BOUQUET: _gen_bouquet,
}

REALIZABLE_TYPES = sorted(_GEN)


def rand_clique3(rng: random.Random, typ: str) -> list[TorusCurve]:
    if typ not in _GEN:
        raise ValueError(f"cannot realize clique type {typ!r} on the torus")
    for _ in range(50):
        trio = _GEN[typ](rng)
        try:
            for u in trio:
                check_vertex(u)
            if classify_clique3(*trio).type == typ:
                return trio
        except (NotAVertex, NotAClique):
            continue
    raise RuntimeError(f"clique generation failed for {typ}")


def _zig_through(rng: random.Random, x0: Fraction, bends: int) -> TorusCurve:
    """A curve crossing the horizontal y=1/2 exactly once, at (x0, 1/2)."""
    pts = [(x0, Fraction(1, 2))]
    for i in range(bends):
        pts.append((_rand_frac(rng), Fraction(1, 2) + Fraction(i + 1, bends + 1)))
    k = rng.choice([-1, 0, 1])
    pts.append((x0 + k, Fraction(3, 2)))
    return TorusCurve(pts)


def rand_chain_triple(rng: random.Random):
    """(a, b, c) with b and c each crossing a exactly once, at one shared
    point; b and c may cross each other arbitrarily."""
    for _ in range(50):
        a0 = TorusCurve([pt(0, Fraction(1, 2)), pt(1, Fraction(1, 2))])
        x0 = _rand_frac(rng)
        b0 = _zig_through(rng, x0, rng.randrange(1, 5))
        c0 = _zig_through(rng, x0, rng.randrange(1, 5))
        # mild shears only: heavy shear makes the sectors at the shared
        # point arbitrarily thin and witness searches needlessly slow
        m = _rand_sl2(rng, steps=2)
        v = (_rand_frac(rng), _rand_frac(rng))
        trio = [_apply_affine(u, m, v) for u in (a0, b0, c0)]
        try:
            for u in trio:
                check_vertex(u)
            a, b, c = trio
            tb, tc = is_edge(a, b), is_edge(a, c)
            if (
                isinstance(tb, TransverseEdge)
                and isinstance(tc, TransverseEdge)
                and torus_rep(tb.point) == torus_rep(tc.point)
            ):
                return trio
        except NotAVertex:
            continue
    raise RuntimeError("chain triple generation failed")
