"""The four workloads: seeded operand lists, the timed call, the output check.

A workload is a fixed list of operations in a fixed order, made from the
seed alone.  The list is built from whole rounds; a round holds the same mix
of operation kinds in every run, so that runs with different seeds time
comparable work.  No two operations share an operand: constructed curves
use coordinates no earlier operation of the run used, and pool curves are
distinct up to deck translation, so a cache keyed on curve identity or
value can only gain from reuse within one operation.

``build`` runs during set-up, ``run`` is the timed call into finegraph, and
``check`` compares the output with a computation made apart from finegraph
(construction plus the brute-force routines in ``oracle``).
"""

from __future__ import annotations

import io
import json
import os
import random
from contextlib import redirect_stdout
from fractions import Fraction as F
from pathlib import Path

from finegraph import arc_graphs, cli, fine_graph, germs_width, homeo_action
from finegraph.surfaces import AnnulusArc, SurfaceModel, TorusCurve

import oracle

HERE = Path(__file__).resolve().parent
POOL = HERE / "data" / "witness_pool.json"

SL2 = [
    ((1, 0), (0, 1)),
    ((1, 1), (0, 1)),
    ((1, 0), (1, 1)),
    ((0, -1), (1, 0)),
    ((1, -1), (0, 1)),
    ((2, 1), (1, 1)),
]


def _mat(m, p):
    return (m[0][0] * p[0] + m[0][1] * p[1], m[1][0] * p[0] + m[1][1] * p[1])


def _affine(m, v, lift):
    return [(x + v[0], y + v[1]) for x, y in (_mat(m, p) for p in lift)]


def _str_lift(lift):
    return [[str(x), str(y)] for x, y in lift]


def _lift(curve):
    return list(curve.lift)


class _Fresh:
    """Rational offsets whose points no earlier operation of the run used.

    Every offset has the prime denominator 1009, so operands of all seeds
    have numbers of the same size: with denominators drawn from 48-96 the
    cost of the exact arithmetic, and with it the run's figures, moved by a
    third from seed to seed."""

    DEN = 1009

    def __init__(self, rng):
        self.rng = rng
        self.seen = set()

    def frac(self):
        return F(self.rng.randrange(1, self.DEN), self.DEN)

    def claim(self, lifts):
        pts = {oracle.rep(p) for lift in lifts for p in lift}
        if pts & self.seen:
            return False
        self.seen |= pts
        return True


# ------------------------------------------------------- clique-classify

# Base configurations in the unit square: curves, expected verdict, and the
# torus points the verdict must report.  Extra collinear vertices put some
# crossings exactly on vertices.
_H = F(1, 2)
_CLASSIFY_BASES = [
    ("transverse", [[(0, _H), (1, _H)], [(F(1, 3), 0), (F(1, 3), 1)]], [(F(1, 3), _H)]),
    ("transverse", [[(0, _H), (F(1, 3), _H), (1, _H)],
                    [(F(1, 3), 0), (F(1, 3), _H), (F(1, 3), 1)]], [(F(1, 3), _H)]),
    ("disjoint", [[(0, F(1, 4)), (_H, F(1, 3)), (1, F(1, 4))],
                  [(0, F(3, 4)), (1, F(3, 4))]], []),
    ("none", [[(0, _H), (1, _H)], [(0, 0), (1, 2)]], None),
    ("none", [[(0, _H), (1, _H)], [(0, F(3, 4)), (_H, _H), (1, F(3, 4))]], None),
    ("all_disjoint", [[(0, F(1, 6)), (1, F(1, 6))],
                      [(0, _H), (_H, F(2, 5)), (1, _H)],
                      [(0, F(5, 6)), (1, F(5, 6))]], []),
    ("all_disjoint", [[(0, 0), (1, 1)], [(F(1, 3), 0), (F(4, 3), 1)],
                      [(F(2, 3), 0), (F(5, 6), F(1, 4)), (F(5, 3), 1)]], []),
    ("two_pair", [[(0, F(1, 4)), (1, F(1, 4))], [(_H, 0), (_H, 1)],
                  [(0, F(3, 4)), (1, F(3, 4))]], [(_H, F(1, 4)), (_H, F(3, 4))]),
    ("two_pair", [[(0, F(1, 4)), (_H, F(1, 4)), (1, F(1, 4))],
                  [(_H, 0), (_H, F(1, 4)), (F(5, 8), _H), (_H, F(3, 4)), (_H, 1)],
                  [(0, F(3, 4)), (_H, F(3, 4)), (1, F(3, 4))]],
     [(_H, F(1, 4)), (_H, F(3, 4))]),
    ("necklace", [[(0, _H), (1, _H)], [(_H, 0), (_H, 1)], [(0, F(1, 4)), (1, F(5, 4))]],
     [(_H, _H), (F(1, 4), _H), (_H, F(3, 4))]),
    ("necklace", [[(0, _H), (F(1, 4), _H), (_H, _H), (1, _H)],
                  [(_H, 0), (_H, _H), (_H, F(3, 4)), (_H, 1)],
                  [(0, F(1, 4)), (F(1, 4), _H), (_H, F(3, 4)), (1, F(5, 4))]],
     [(_H, _H), (F(1, 4), _H), (_H, F(3, 4))]),
    ("bouquet", [[(F(1, 3), F(1, 5)), (F(4, 3), F(1, 5))],
                 [(F(1, 3), F(1, 5)), (F(1, 3), F(6, 5))],
                 [(F(1, 3), F(1, 5)), (F(4, 3), F(6, 5))]], [(F(1, 3), F(1, 5))] * 3),
    ("bouquet", [[(0, F(1, 5)), (1, F(1, 5))], [(F(1, 3), 0), (F(1, 3), 1)],
                 [(F(2, 15), 0), (F(17, 15), 1)]], [(F(1, 3), F(1, 5))] * 3),
    (None, [[(0, _H), (1, _H)], [(0, 0), (1, 2)], [(F(1, 4), 0), (F(1, 4), 1)]], None),
    (None, [[(0, _H), (1, _H)], [(0, F(3, 4)), (_H, _H), (1, F(3, 4))],
            [(F(1, 4), 0), (F(1, 4), 1)]], None),
]


class CliqueClassify:
    """`finegraph classify` requests through ``cli.main`` on files written
    at set-up; every request is an SL(2,Z) x Q^2 image of a base
    configuration."""

    name = "clique-classify"
    round_size = len(_CLASSIFY_BASES)
    min_ops = 40
    ops_per_s = 67.0

    def __init__(self, workdir):
        self.workdir = Path(workdir)

    def build(self, rng, n_ops):
        fresh = _Fresh(rng)
        self.workdir.mkdir(parents=True, exist_ok=True)
        offset = rng.randrange(len(SL2))
        ops = []
        for r in range(n_ops // self.round_size):
            order = list(range(self.round_size))
            rng.shuffle(order)
            for b in order:
                want, base, pts = _CLASSIFY_BASES[b]
                m = SL2[(b + r + offset) % len(SL2)]
                while True:
                    v = (fresh.frac(), fresh.frac())
                    lifts = [_affine(m, v, [(F(x), F(y)) for x, y in c]) for c in base]
                    if fresh.claim(lifts):
                        break
                path = self.workdir / f"req{len(ops):05d}.json"
                path.write_text(json.dumps({"curves": [
                    {"model": "torus", "lift": _str_lift(c)} for c in lifts]}))
                img = None if pts is None else sorted(
                    oracle.rep(p) for p in (_affine(m, v, [q])[0] for q in pts))
                ops.append({"path": str(path), "lifts": lifts, "want": want, "points": img})
        return ops

    def run(self, op):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.main(["classify", op["path"]])
        return code, buf.getvalue()

    def check(self, op, out):
        code, text = out
        if code != 0:
            return f"exit code {code}"
        verdict = json.loads(text)
        lifts, want = op["lifts"], op["want"]
        if len(lifts) == 2:
            got = verdict.get("edge")
            pts = [tuple(F(c) for c in verdict["point"])] if got == "transverse" else []
        else:
            got = verdict.get("clique_type")
            pts = [tuple(F(c) for c in p) for p in verdict.get("points", [])]
        if got != want:
            return f"verdict {got!r}, construction gives {want!r}"
        if op["points"] is not None and sorted(oracle.rep(p) for p in pts) != op["points"]:
            return "reported points are not the images of the base points"
        # brute-force enumeration must agree with the construction
        if len(lifts) == 2:
            tag, x = oracle.edge_tag(*lifts)
            pts = [x] if x is not None else []
        else:
            tag, pts = oracle.clique_type(lifts)
        if tag != want:
            return f"brute force gives {tag!r}, construction {want!r}"
        if op["points"] is not None and sorted(pts) != op["points"]:
            return "brute-force crossing points differ from the construction"
        return None


# ---------------------------------------------------------- automorphism

_CLASSES = [(1, 0), (0, 1), (1, 1), (1, -1)]
_LINEAR = [((1, 1), (0, 1)), ((0, -1), (1, 0)), ((1, 0), (1, 1)), ((0, 1), (1, 0)),
           ((2, 1), (1, 1)), ((1, 0), (0, -1))]


def _graph_curve(rng, fresh, cls, bends):
    """A curve of primitive class cls whose lift is monotone along cls, so
    it is simple on the torus: the straight lift with interior vertices
    moved across the direction by less than the spacing."""
    p, q = cls
    o = (fresh.frac(), fresh.frac())
    pts = [o]
    for i in range(1, bends + 1):
        t = F(i, bends + 1)
        j = F(rng.randrange(-6, 7), 48)
        pts.append((o[0] + t * p - j * q, o[1] + t * q + j * p))
    pts.append((o[0] + p, o[1] + q))
    return pts


def _pl_images(rng, grid):
    """A PL homeomorphism of the torus: identity on the boundary of a
    grid x grid triangulation of the square, interior grid vertices moved
    by less than a quarter of the spacing."""
    coords = [F(i, grid) for i in range(grid + 1)]
    verts = [(x, y) for y in coords for x in coords]
    idx = {v: i for i, v in enumerate(verts)}
    imgs = list(verts)

    def jitter():
        return F(rng.randrange(-3, 4), 16 * grid) + F(rng.randrange(1, 64), 1024 * grid)

    for vy in coords[1:-1]:
        for vx in coords[1:-1]:
            imgs[idx[(vx, vy)]] = (vx + jitter(), vy + jitter())
    tris = []
    for i in range(grid):
        for j in range(grid):
            a, b = idx[(coords[i], coords[j])], idx[(coords[i + 1], coords[j])]
            c, d = idx[(coords[i + 1], coords[j + 1])], idx[(coords[i], coords[j + 1])]
            tris.extend([(a, b, c), (a, c, d)])
    return verts, imgs, tris


class Automorphism:
    """One ``check_automorphism(f, U)`` per operation; U is a fresh
    universe of simple curves and f a linear, translation or PL map.

    Universe shapes and PL maps come from a fixed stream, the same for
    every seed (curve i has class i mod 4 of _CLASSES and i mod 3 bends);
    the seed moves each universe by a fresh translation and draws the
    translation maps.  With shapes drawn per seed, operation times moved by
    25% from seed to seed."""

    name = "automorphism"
    kinds = ("linear", "translation", "pl")
    round_size = 3
    universe = 6
    pl_grid = 2
    min_ops = 40
    ops_per_s = 2.0

    def build(self, rng, n_ops):
        shapes_rng = random.Random(f"{self.name}:shapes")
        shapes = _Fresh(shapes_rng)
        fresh = _Fresh(rng)
        ops = []
        for r in range(n_ops // self.round_size):
            for kind in self.kinds:
                while True:
                    shape = [_graph_curve(shapes_rng, shapes, _CLASSES[i % len(_CLASSES)], i % 3)
                             for i in range(self.universe)]
                    if all(oracle.simple(c) for c in shape):
                        break
                while True:
                    v = (fresh.frac(), fresh.frac())
                    lifts = [[(x + v[0], y + v[1]) for x, y in c] for c in shape]
                    if fresh.claim(lifts):
                        break
                if kind == "linear":
                    f = homeo_action.linear_map(_LINEAR[r % len(_LINEAR)])
                elif kind == "translation":
                    f = homeo_action.translation_map((fresh.frac(), fresh.frac()))
                else:
                    f = homeo_action.pl_map(*_pl_images(shapes_rng, self.pl_grid))
                ops.append({"f": f, "universe": [TorusCurve(c) for c in lifts]})
        return ops

    def run(self, op):
        return homeo_action.check_automorphism(op["f"], op["universe"])

    def check(self, op, out):
        if out != []:
            return f"{len(out)} automorphism violations, first {out[0]}"
        return None


# -------------------------------------------------------- witness-search

_FACES = {"all_disjoint": 3, "two_pair": 2, "bouquet": 2}


class WitnessSearch:
    """``refute_N`` on all_disjoint, two_pair and bouquet triples with 0-2
    alpha curves, interleaved with ``bouquet_chain`` + ``verify_chain``.

    Operands come from the stored pool (see make_pool.py), bucketed by
    triple type and alpha count.  A round is two refutations and three
    chains; the refutations run through the nine (type, alpha count)
    buckets in turn.  A run of n rounds takes the first entries of each bucket in pool
    order and the seed deals them out, so runs with different seeds time
    the same operands in different orders: refutation times spread over a
    decade, and sampling a fresh subset per seed moved the medians by
    15-25%.  Three chains per two refutations put the median among the
    chains and the tail among the refutations instead of on the border
    between them, where it moved by a fifth between runs.  The warm-up round uses the
    entries that follow, the same for every seed."""

    name = "witness-search"
    types = ("all_disjoint", "two_pair", "bouquet")
    round_size = 5
    # 40 operations left the median and the tail on one or two operations
    # each; they moved by a quarter between runs
    min_ops = 70
    ops_per_s = 2.0

    def plan(self, rounds):
        out = []
        for r in range(rounds):
            a, b = (f"{self.types[q % 3]}:{q // 3 % 3}" for q in (2 * r, 2 * r + 1))
            out += [a, "chain", b, "chain", "chain"]
        return out

    def build(self, rng, n_ops):
        buckets = {}
        for e in json.loads(POOL.read_text())["entries"]:
            buckets.setdefault(e["bucket"], []).append(e)
        timed = self.plan(n_ops // self.round_size - 1)
        warm = self.plan(n_ops // self.round_size)[len(timed):]
        deal = {}
        for b in sorted(set(timed + warm)):
            head = buckets[b][: timed.count(b)]
            rng.shuffle(head)
            deal[b] = head + buckets[b][len(head): len(head) + warm.count(b)]
        ops = []
        for b in timed + warm:
            e = deal[b].pop(0)
            ops.append({
                "type": b.split(":")[0],
                "curves": [TorusCurve([(F(x), F(y)) for x, y in c]) for c in e["curves"]],
                "alphas": [TorusCurve([(F(x), F(y)) for x, y in c]) for c in e["alphas"]],
            })
        return ops

    def run(self, op):
        if op["type"] == "chain":
            cert = arc_graphs.bouquet_chain(*op["curves"])
            return cert, arc_graphs.verify_chain(cert)
        return fine_graph.refute_N(*op["curves"], alphas=op["alphas"])

    def check(self, op, out):
        if op["type"] == "chain":
            return check_chain(out)
        return check_refutation(op, out)


def check_refutation(op, d):
    lifts = [_lift(c) for c in op["curves"]]
    dl = _lift(d)
    if not oracle.simple(dl) or oracle.homology(oracle.closed_path(dl)) == (0, 0):
        return "d is not a vertex"
    for c in lifts:
        if oracle.edge_tag(dl, c)[0] == "none":
            return "d meets a curve of the triple more than once or not transversally"
    for al in op["alphas"]:
        if oracle.crossings(dl, _lift(al)) < 2:
            return "d crosses an alpha fewer than twice"
    labels = set(oracle.face_labels(lifts, oracle.piece_samples(dl, lifts)))
    if len(labels) != _FACES[op["type"]]:
        return f"d meets {len(labels)} of {_FACES[op['type']]} complementary faces"
    return None


def check_chain(out):
    cert, violations = out
    if violations:
        return f"verify_chain rejects: {violations[0]}"
    points = set()
    for e in cert.edges:
        tag, x = oracle.edge_tag(_lift(e.a), _lift(e.b))
        if tag != "transverse":
            return "a chain edge is not a transverse edge"
        points.add(x)
    if len(points) != 1:
        return "chain edge points differ"
    return None


# --------------------------------------------------------- annulus-width

_SPIRAL = [(0, 1), (F(-3, 4), F(3, 5)), (F(-4, 5), F(-1, 5)), (F(-1, 5), F(-3, 4)),
           (F(1, 2), F(-1, 2)), (F(3, 5), F(1, 5)), (0, F(1, 2))]


def _bulged(gen):
    t = F(7, 10)
    pts = [(t * x, t * y) for x, y in gen]
    pts[0] = (F(1, 20), pts[0][1])
    pts[-1] = (F(1, 40), pts[-1][1])
    pts[2] = (3 * pts[2][0], 3 * pts[2][1])
    return pts


# germ pairs with contraction 1/2 and their widths; "inf" is incomparable
_GERMS = [
    ([(0, 1), (0, F(1, 2))], [(-1, F(-1, 3)), (F(-1, 2), F(-1, 6))], 0),
    ([(1, 2), (F(1, 2), 1)], _SPIRAL, "inf"),
    (_SPIRAL, _bulged(_SPIRAL), 2),
]
# rotations that keep every germ vertex off the x-axis, where winding is
# counted
_ROTATIONS = [(1, 0), (F(3, 5), F(4, 5)), (F(-4, 5), F(3, 5)), (F(5, 13), F(12, 13)),
              (F(-12, 13), F(-5, 13)), (F(4, 5), F(-3, 5))]


def _cannulus(pts):
    return AnnulusArc(SurfaceModel.COMPACT_ANNULUS, pts)


class AnnulusWidth:
    """``relative_width`` on compact-annulus arc pairs of widths 0-8, and
    with ``distance_path`` on pairs of width 4; ``germ_width`` on
    self-similar germ pairs; ``unicorn_path`` on zigzag arcs with 16, 32
    and 48 crossings.

    A round of eight puts the cheap operations (widths, germs) in the
    lowest three eighths of the times, the unicorns in the next half and
    the distance paths on top, so that the median and the tail each fall
    inside one group of like operations; with widths 0-8 all getting
    distance paths, the tail was one path of one width and moved by a third
    between runs."""

    name = "annulus-width"
    strata = ("path", "width", "unicorn", "germ", "unicorn", "germ", "unicorn", "unicorn")
    round_size = len(strata)
    max_width = 8
    path_width = 4
    crossings = (16, 32, 48)
    # twelve rounds keep ten distance paths beyond the tail sample
    min_ops = 12 * 8
    ops_per_s = 6.0

    def build(self, rng, n_ops):
        fresh = _Fresh(rng)
        rounds = n_ops // self.round_size
        widths = [r % (self.max_width + 1) for r in range(rounds)]
        rng.shuffle(widths)
        ops = []
        germs = unicorns = 0
        for r in range(rounds):
            for s in self.strata:
                if s == "path":
                    ops.append(self._width_op(rng, fresh, self.path_width, "path"))
                elif s == "width":
                    ops.append(self._width_op(rng, fresh, widths[r], "width"))
                elif s == "germ":
                    ops.append(self._germ_op(rng, fresh, _GERMS[germs % len(_GERMS)]))
                    germs += 1
                else:
                    n = self.crossings[unicorns % len(self.crossings)]
                    ops.append(self._unicorn_op(rng, fresh, n))
                    unicorns += 1
        return ops

    def _width_op(self, rng, fresh, k, kind):
        """A vertical arc against the winding arc of k turns, both moved by
        a fresh horizontal offset: the pair of the distance formula, whose
        width is k by construction.  Bending either arc at random made
        distance_path times vary tenfold between seeds."""
        while True:
            dx = fresh.frac()
            a = [(dx + F(1, 3), F(0)), (dx + F(1, 3), F(1))]
            b = [(dx, F(0))] + [(dx + i + F(1, 2), F(2 * i + 1, 2 * k)) for i in range(k)]
            b.append((dx + k, F(1)))
            if fresh.claim([a, b]):
                break
        return {"kind": kind, "a": _cannulus(a), "b": _cannulus(b), "want": k}

    def _germ_op(self, rng, fresh, spec):
        g1, g2, want = spec
        while True:
            rot = rng.choice(_ROTATIONS)
            s = 1 + fresh.frac() / 4

            def move(gen):
                return [(s * (rot[0] * x - rot[1] * y), s * (rot[1] * x + rot[0] * y))
                        for x, y in ((F(x), F(y)) for x, y in gen)]

            m1, m2 = move(g1), move(g2)
            if fresh.claim([m1, m2]):
                break
        return {"kind": "germ", "g1": germs_width.GermSpec([], m1, F(1, 2), (1, 0)),
                "g2": germs_width.GermSpec([], m2, F(1, 2), (1, 0)), "want": want}

    def _unicorn_op(self, rng, fresh, n):
        while True:
            x0, y0 = fresh.frac(), fresh.frac()
            base = [(F(0), y0), (F(1), y0)]
            vert = [(x0, y0 - F(1, 2)), (x0, y0 + F(1, 2))]
            zig = [(x0, y0)]
            for i in range(n + 1):
                side = F(1, 8) if i % 2 == 0 else F(-1, 8)
                zig.append((x0 + side, y0 + F(i + 1, n + 2)))
            zig.append((x0, y0 + 1))
            if fresh.claim([base, vert, zig]):
                break
        S = arc_graphs.cut_along(TorusCurve(base), (x0, y0))
        g1 = S.curve_to_arc(TorusCurve(vert))
        g2 = S.curve_to_arc(TorusCurve(zig))
        return {"kind": "unicorn", "S": S, "g1": g1, "g2": g2, "want": n}

    def run(self, op):
        kind = op["kind"]
        if kind == "width":
            return germs_width.relative_width(op["a"], op["b"]), None
        if kind == "path":
            res = germs_width.relative_width(op["a"], op["b"])
            return res, germs_width.distance_path(op["a"], op["b"])
        if kind == "germ":
            return germs_width.germ_width(op["g1"], op["g2"])
        return arc_graphs.unicorn_path(op["S"], op["g1"], op["g2"])

    def check(self, op, out):
        kind = op["kind"]
        if kind in ("width", "path"):
            return check_width(op, out)
        if kind == "germ":
            return check_germ(op, out)
        return check_unicorn(op, out)


def check_width(op, out):
    res, path = out
    a, b = list(op["a"].lift), list(op["b"].lift)
    K = oracle.translate_set(a, b)
    if len(K) != op["want"] or tuple(sorted(K)) != tuple(res.K) or res.width != len(K):
        return f"width {res.width}, K {res.K}; brute force gives {sorted(K)}"
    if path is None:
        return None
    if len(path) != len(K) + 2:
        return f"path has {len(path)} vertices for width {len(K)}"
    if list(path[0].lift) != a or list(path[-1].lift) != b:
        return "path does not run from a to b"
    for u, v in zip(path, path[1:]):
        if oracle.translate_set(list(u.lift), list(v.lift)):
            return "consecutive path vertices meet"
    return None


def check_germ(op, res):
    want = op["want"]
    ks = oracle.germ_classes(list(op["g1"].generator), list(op["g2"].generator), F(1, 2))
    if want == "inf":
        if res.width != "inf" or res.comparable or len(ks) < 10:
            return f"width {res.width}; tail enumeration finds {len(ks)} classes"
        return None
    if res.width != want or len(ks) != want or not res.comparable:
        return f"width {res.width}; tail enumeration finds {len(ks)} classes, construction {want}"
    return None


def check_unicorn(op, path):
    g1, g2 = op["g1"], op["g2"]
    if list(path[0]) != list(g1) or list(path[-1]) != list(g2):
        return "path does not run from g1 to g2"
    counts = [oracle.strip_crossings(path[0], arc) for arc in path[1:]]
    if counts[-1] != op["want"]:
        return f"g2 crosses g1 {counts[-1]} times, constructed with {op['want']}"
    if any(x >= y for x, y in zip(counts, counts[1:])):
        return f"unicorn crossing counts {counts} do not strictly decrease"
    for u, v in zip(path, path[1:]):
        if oracle.strip_crossings(u, v):
            return "consecutive unicorn arcs cross"
    return None


WORKLOADS = {w.name: w for w in (CliqueClassify, Automorphism, WitnessSearch, AnnulusWidth)}


def make(name, workdir):
    cls = WORKLOADS[name]
    return cls(workdir) if cls is CliqueClassify else cls()


def op_count(name, seconds):
    """Operations in a run: whole rounds, at least `min_ops`, about
    `seconds` of work at the workload's nominal rate on the reference host."""
    cls = WORKLOADS[name]
    want = max(cls.min_ops, round(cls.ops_per_s * seconds))
    return -(-want // cls.round_size) * cls.round_size


def seed_rng(name, seed):
    return random.Random(f"{name}:{seed}")


def cleanup(workdir):
    p = Path(workdir)
    if p.is_dir():
        for f in p.iterdir():
            os.unlink(f)
        p.rmdir()
