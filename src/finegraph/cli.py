"""Command line surface: clique classification, widths and distances,
chain-certificate verification, property-suite runs, and SVG renderings.

All verdicts are printed as JSON tagged with the schema version; rationals
are serialized as "p/q" strings.  Exit codes: 0 success, 1 suite or
certificate violation, 2 parse error, 3 input curve not a vertex, 4
infinite width when an explicit path was requested, 5 width operands the
width computation cannot handle (no common cut class, a non-generic
contact, no channel for an explicit path, or germs with different
contractions).  Same command, seed and inputs always produce byte-identical
output.  SVG files are advisory renderings for human inspection; nothing
downstream depends on them.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

from . import SCHEMA
from .arc_graphs import (
    ChainCertificate,
    _arc_crossings,
    bouquet_chain,
    cut_along,
    unicorn_path,
    verify_chain,
)
from .curves_ops import SideChoice, intersect_curves, push_aside
from .fine_graph import (
    ALL_DISJOINT,
    BOUQUET,
    NECKLACE,
    ONE_PAIR,
    TWO_PAIR,
    DisjointEdge,
    NonEdge,
    NotAClique,
    NotAVertex,
    TransverseEdge,
    check_vertex,
    classify_clique3,
    faces_met,
    is_edge,
    necklace_witness_F,
    refute_N,
)
from .generators import REALIZABLE_TYPES, rand_chain_triple, rand_clique3, rand_vertex
from .germs_width import (
    ContractionMismatch,
    DegenerateBigon,
    GermSpec,
    InfiniteWidth,
    NonGeneric,
    distance_path,
    germ_width,
    relative_width,
)
from .homeo_action import check_automorphism, linear_map, translation_map
from .surfaces import (
    INFINITE,
    AnnulusArc,
    ModelMismatch,
    SurfaceModel,
    TorusCurve,
    complement_components,
    lift_translates_hit,
    path_homology,
    torus_rep,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_PARSE = 2
EXIT_NOT_A_VERTEX = 3
EXIT_INFINITE = 4
EXIT_DEGENERATE = 5

F = Fraction


class ParseFailure(ValueError):
    pass


# ------------------------------------------------------------ input parsing


def _points(raw):
    try:
        return [(Fraction(str(x)), Fraction(str(y))) for x, y in raw]
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise ParseFailure(f"bad point list: {exc}")


def load_operand(obj, default_model=None):
    """A TorusCurve, AnnulusArc, or GermSpec from its JSON form."""
    if not isinstance(obj, dict):
        raise ParseFailure("operand must be a JSON object")
    if "generator" in obj:
        try:
            return GermSpec.from_json(obj)
        except (KeyError, IndexError, ValueError, TypeError, ZeroDivisionError) as exc:
            raise ParseFailure(f"bad germ: {exc}")
    name = obj.get("model", default_model or "torus")
    try:
        model = SurfaceModel(name)
    except ValueError:
        raise ParseFailure(f"unknown model {name!r}")
    if "lift" not in obj:
        raise ParseFailure("operand needs a 'lift'")
    pts = _points(obj["lift"])
    try:
        if model is SurfaceModel.TORUS:
            curve = TorusCurve(pts)
            if "homology" in obj and tuple(obj["homology"]) != curve.homology:
                raise ParseFailure("declared homology does not match the lift")
            return curve
        if any(p == q for p, q in zip(pts, pts[1:])):
            raise ParseFailure("repeated consecutive point in the lift")
        return AnnulusArc(model, pts, tuple(obj.get("end_rays", (0, 0))))
    except ParseFailure:
        raise
    except (ValueError, TypeError) as exc:
        raise ParseFailure(str(exc))


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseFailure(f"cannot read {path}: {exc}")


def _emit(data):
    sys.stdout.write(json.dumps(data, indent=2, sort_keys=True) + "\n")


def _str_pt(p):
    return [str(p[0]), str(p[1])]


def _str_path(path):
    return [_str_pt(p) for p in path]


# -------------------------------------------------------------- rendering

_PALETTE = ["#c0392b", "#2980b9", "#27ae60", "#8e44ad", "#d35400", "#16a085"]


def render_svg(path, layers, points=()):
    """Advisory picture: the fundamental square (or strip cell), each
    operand's lifted polylines clipped to it, intersection points marked."""
    side, margin = 400, 20

    def sx(x):
        return float(margin + side * x)

    def sy(y):
        return float(margin + side * (1 - y))

    out = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="440" height="440" '
        'viewBox="0 0 440 440">',
        '<defs><clipPath id="cell">'
        f'<rect x="{margin}" y="{margin}" width="{side}" height="{side}"/>'
        "</clipPath></defs>",
        f'<rect x="{margin}" y="{margin}" width="{side}" height="{side}" '
        'fill="white" stroke="black"/>',
        '<g clip-path="url(#cell)">',
    ]
    for i, polylines in enumerate(layers):
        color = _PALETTE[i % len(_PALETTE)]
        for line in polylines:
            coords = " ".join(f"{sx(p[0]):.3f},{sy(p[1]):.3f}" for p in line)
            out.append(
                f'<polyline points="{coords}" fill="none" '
                f'stroke="{color}" stroke-width="2"/>'
            )
    for p in points:
        out.append(
            f'<circle cx="{sx(p[0]):.3f}" cy="{sy(p[1]):.3f}" r="4" '
            'fill="black"/>'
        )
    out.append("</g></svg>")
    Path(path).write_text("\n".join(out) + "\n")


def _layers_for(operands):
    layers = []
    for op in operands:
        if isinstance(op, TorusCurve):
            base = op.period_path()
            lines = [
                [(p[0] + kx, p[1] + ky) for p in base]
                for kx in range(-2, 3)
                for ky in range(-2, 3)
            ]
        elif isinstance(op, AnnulusArc):
            lines = [[p for p in s.lift] for s in (op, op.shifted(1), op.shifted(-1))]
        else:
            lines = [op.copy_path(i) for i in range(4)]
        layers.append(lines)
    return layers


def _crossing_marks(operands):
    pts = []
    curves = [op for op in operands if isinstance(op, TorusCurve)]
    for i in range(len(curves)):
        for j in range(i + 1, len(curves)):
            pts.extend(intersect_curves(curves[i], curves[j]).transverse_points())
    return pts


# ------------------------------------------------------------- subcommands


def cmd_classify(args) -> int:
    data = _load_json(args.input)
    raw = data["curves"] if isinstance(data, dict) and "curves" in data else data
    if not isinstance(raw, list) or len(raw) not in (2, 3):
        raise ParseFailure("classify expects a list of 2 or 3 curves")
    curves = [load_operand(o, args.model) for o in raw]
    if not all(isinstance(c, TorusCurve) for c in curves):
        raise ParseFailure("classification is defined for torus curves")
    for c in curves:
        check_vertex(c)
    if len(curves) == 2:
        tag = is_edge(*curves)
        verdict = {"schema": SCHEMA}
        if isinstance(tag, TransverseEdge):
            verdict["edge"] = "transverse"
            verdict["point"] = _str_pt(torus_rep(tag.point))
        elif isinstance(tag, DisjointEdge):
            verdict["edge"] = "disjoint"
        else:
            verdict["edge"] = "none"
    else:
        try:
            verdict = {"schema": SCHEMA, **classify_clique3(*curves).to_json()}
        except NotAClique as exc:
            verdict = {"schema": SCHEMA, "clique_type": None, "reason": str(exc)}
    if args.svg:
        render_svg(args.svg, _layers_for(curves), _crossing_marks(curves))
    _emit(verdict)
    return EXIT_OK


def cmd_width(args) -> int:
    try:
        return _width(args)
    except (NonGeneric, DegenerateBigon, ContractionMismatch) as exc:
        sys.stderr.write(f"width not computable: {exc}\n")
        return EXIT_DEGENERATE


def _width(args) -> int:
    data = _load_json(args.input)
    if isinstance(data, dict) and "a" in data and "b" in data:
        raw = [data["a"], data["b"]]
    elif isinstance(data, list) and len(data) == 2:
        raw = data
    else:
        raise ParseFailure("width expects two operands 'a' and 'b'")
    a, b = (load_operand(o, args.model) for o in raw)
    germs = isinstance(a, GermSpec) + isinstance(b, GermSpec)
    if germs == 1:
        raise ParseFailure("cannot mix a germ with a curve or arc")
    for c in (a, b):
        if isinstance(c, TorusCurve):
            check_vertex(c)
    if germs == 2:
        res = germ_width(a, b)
        if args.path and res.width == INFINITE:
            sys.stderr.write("width is infinite: no finite path exists\n")
            return EXIT_INFINITE
        verdict = {"schema": SCHEMA, "width": res.width, "comparable": res.comparable}
        if res.width != INFINITE:
            verdict["distance"] = res.width + 1
        _emit(verdict)
        return EXIT_OK
    res = relative_width(a, b)
    verdict = {
        "schema": SCHEMA,
        "K": list(res.K),
        "width": res.width,
        "distance": res.width + 1,
    }
    if args.path:
        try:
            hops = distance_path(a, b)
        except InfiniteWidth:
            sys.stderr.write("width is infinite: no finite path exists\n")
            return EXIT_INFINITE
        verdict["path"] = [_str_path(v.lift) for v in hops]
    if args.svg:
        render_svg(args.svg, _layers_for([a, b]), _crossing_marks([a, b]))
    _emit(verdict)
    return EXIT_OK


def cmd_verify_chain(args) -> int:
    data = _load_json(args.input)
    try:
        cert = ChainCertificate.from_json(data)
    except (KeyError, IndexError, ValueError, TypeError, ZeroDivisionError) as exc:
        raise ParseFailure(f"bad certificate: {exc}")
    violations = verify_chain(cert)
    _emit({"schema": SCHEMA, "accepted": not violations, "violations": violations})
    return EXIT_VIOLATION if violations else EXIT_OK


# ------------------------------------------------------------ the suite

_STANDARD_NECKLACE = (
    [(0, F(1, 2)), (1, F(1, 2))],
    [(F(1, 2), 0), (F(1, 2), 1)],
    [(0, F(1, 4)), (1, F(5, 4))],
)


def _necklace_curves():
    return tuple(TorusCurve(p) for p in _STANDARD_NECKLACE)


def _oracle_type3(curves):
    """Clique type read straight off pairwise intersection reports."""
    reports = [
        intersect_curves(curves[i], curves[j])
        for i in range(3)
        for j in range(i + 1, 3)
    ]
    pts = []
    for r in reports:
        if r.overlaps or any(kind != "transverse" for _, kind in r.points):
            return None
        t = r.transverse_points()
        if len(t) > 1:
            return None
        pts.extend(torus_rep(p) for p in t)
    if len(pts) == 0:
        return ALL_DISJOINT
    if len(pts) == 1:
        return ONE_PAIR
    if len(pts) == 2:
        return TWO_PAIR
    if len(set(pts)) == 1:
        return BOUQUET
    if len(set(pts)) == 3:
        return NECKLACE
    return None


def _check_clique_types(rng, corrupt):
    for typ in REALIZABLE_TYPES:
        for _ in range(4):
            trio = rand_clique3(rng, typ)
            got = classify_clique3(*trio).type
            want = _oracle_type3(trio)
            if got != want or got != typ:
                return f"type {got!r} disagrees with oracle {want!r} (asked {typ!r})"
    return None


def _check_edge_tags(rng, corrupt):
    a = TorusCurve([(0, F(1, 2)), (1, F(1, 2))])
    wedge = TorusCurve([(0, F(3, 4)), (F(1, 2), F(1, 2)), (1, F(3, 4))])
    tag = is_edge(a, wedge)
    if corrupt:
        # negative control: deliberately mislabel the wedge contact
        tag = TransverseEdge(point=(F(1, 2), F(1, 2)))
    if not isinstance(tag, NonEdge):
        return (
            "touching contact labeled transverse: a transverse intersection "
            "point must have alternating branches in cyclic order"
        )
    if not isinstance(is_edge(a, TorusCurve([(F(1, 2), 0), (F(1, 2), 1)])), TransverseEdge):
        return "crossing geodesics must form a transverse edge"
    if not isinstance(is_edge(a, TorusCurve([(0, F(1, 4)), (1, F(1, 4))])), DisjointEdge):
        return "parallel geodesics must form a disjoint edge"
    return None


def _check_necklace_witness(rng, corrupt):
    trio = _necklace_curves()
    witness = necklace_witness_F(*trio)
    if not 4 <= len(witness) <= 8:
        return f"|F| = {len(witness)} outside [4, 8]"
    for u in trio:
        for side in (SideChoice.LEFT, SideChoice.RIGHT):
            d = push_aside(u, side, obstacles=[v for v in trio if v is not u])
            if all(isinstance(is_edge(d, f), NonEdge) for f in witness):
                return "a 4-clique completion misses every witness curve"
    return None


def _check_refutation(rng, corrupt):
    trio = rand_clique3(rng, TWO_PAIR)
    alphas = [rand_vertex(rng)]
    d = refute_N(*trio, alphas=alphas)
    for u in trio:
        if isinstance(is_edge(d, u), NonEdge):
            return "refutation output does not complete a 4-clique"
    faces = complement_components(list(trio))
    if set(faces_met(d, list(trio), faces)) != set(range(len(faces))):
        return "refutation output misses a complementary face"
    if len(intersect_curves(d, alphas[0]).transverse_points()) < 2:
        return "refutation output crosses an alpha fewer than twice"
    neck_faces = complement_components(list(_necklace_curves()))
    if len(neck_faces) != 3:
        return f"standard necklace complement has {len(neck_faces)} faces, not 3"
    return None


def _winding_arc(k):
    pts = [(F(0), F(0))]
    for i in range(k):
        pts.append((F(i) + F(1, 2), F(2 * i + 1, 2 * k)))
    pts.append((F(k), F(1)))
    return AnnulusArc(SurfaceModel.COMPACT_ANNULUS, pts)


def _vertical_arc(x):
    return AnnulusArc(SurfaceModel.COMPACT_ANNULUS, [(F(x), F(0)), (F(x), F(1))])


def _check_annulus_width(rng, corrupt):
    a = _vertical_arc(F(1, 3))
    for k in range(4):
        b = _winding_arc(k) if k else _vertical_arc(F(2, 3))
        res = relative_width(a, b)
        if res.width != k:
            return f"winding fixture {k} has width {res.width}"
        if res.K and res.K[-1] - res.K[0] != len(res.K) - 1:
            return "translate-hit set is not an interval"
        if relative_width(b, a).width != res.width:
            return "width is not symmetric"
    return None


def _check_distance_path(rng, corrupt):
    a, b = _vertical_arc(F(1, 3)), _winding_arc(2)
    hops = distance_path(a, b)
    if len(hops) != 4:
        return f"path for width 2 has {len(hops)} vertices, expected 4"
    for u, v in zip(hops, hops[1:]):
        if lift_translates_hit(u, v):
            return "consecutive path vertices are not disjoint"
    return None


def _check_germs(rng, corrupt):
    ray_up = GermSpec([], [(0, 1), (0, F(1, 2))], F(1, 2), (1, 0))
    ray_dl = GermSpec([], [(-1, F(-1, 3)), (F(-1, 2), F(-1, 6))], F(1, 2), (1, 0))
    spiral = GermSpec(
        [],
        [(0, 1), (F(-3, 4), F(3, 5)), (F(-4, 5), F(-1, 5)), (F(-1, 5), F(-3, 4)),
         (F(1, 2), F(-1, 2)), (F(3, 5), F(1, 5)), (0, F(1, 2))],
        F(1, 2),
        (1, 0),
    )
    tilted = GermSpec([], [(1, 2), (F(1, 2), 1)], F(1, 2), (1, 0))
    if germ_width(ray_up, ray_dl) != germ_width(ray_dl, ray_up):
        return "germ width is not symmetric"
    if germ_width(ray_up, ray_dl).width != 0:
        return "disjoint rays should have width 0"
    res = germ_width(tilted, spiral)
    if res.width != INFINITE or res.comparable:
        return "a spiral against a ray should be incomparable"
    return None


def _check_bouquet_chains(rng, corrupt):
    for _ in range(2):
        trio = rand_chain_triple(rng)
        cert = bouquet_chain(*trio)
        bad = verify_chain(cert)
        if bad:
            return f"chain certificate rejected: {bad[0]}"
    return None


def _check_unicorns(rng, corrupt):
    S = cut_along(TorusCurve([(0, F(1, 2)), (1, F(1, 2))]), (F(1, 4), F(1, 2)))
    g1 = S.curve_to_arc(TorusCurve([(F(1, 4), 0), (F(1, 4), 1)]))
    pts = [(F(1, 4), F(1, 2))]
    xs = [F(3, 8) if i % 2 == 0 else F(1, 8) for i in range(7)]
    for i, x in enumerate(xs):
        pts.append((x, F(1, 2) + F(i + 1, len(xs) + 1)))
    pts.append((F(1, 4), F(3, 2)))
    g2 = S.curve_to_arc(TorusCurve(pts))
    path = unicorn_path(S, g1, g2)
    counts = [len(_arc_crossings(path[0], arc)) for arc in path[1:]]
    if counts != sorted(counts) or len(set(counts)) != len(counts):
        return "unicorn crossing counts are not strictly decreasing"
    return None


def _check_homeo(rng, corrupt):
    universe = [
        TorusCurve([(0, F(1, 2)), (1, F(1, 2))]),
        TorusCurve([(F(1, 2), 0), (F(1, 2), 1)]),
        TorusCurve([(0, 0), (1, 1)]),
    ]
    while len(universe) < 10:
        universe.append(rand_vertex(rng))
    for f in (
        linear_map([[1, 1], [0, 1]]),
        linear_map([[0, -1], [1, 0]]),
        translation_map((F(1, 3), F(1, 7))),
    ):
        bad = check_automorphism(f, universe)
        if bad:
            return f"automorphism check failed: {bad[0]}"
    return None


def _check_arc_homology(rng, corrupt):
    for _ in range(25):
        start = (F(rng.randrange(0, 8), 8), F(rng.randrange(0, 8), 8))
        arcs = []
        for _ in range(3):
            end = (
                start[0] + rng.randrange(-2, 3),
                start[1] + rng.randrange(-2, 3),
            )
            mid = (
                start[0] + F(rng.randrange(-8, 9), 8),
                start[1] + F(rng.randrange(-8, 9), 8),
            )
            arcs.append([start, mid, end])
        x, xp, xpp = arcs
        def loop_class(u, v):
            hu, hv = path_homology(u), path_homology(v)
            return (hu[0] - hv[0], hu[1] - hv[1])
        lhs = loop_class(x, xpp)
        mid_sum = loop_class(x, xp)
        rhs = loop_class(xp, xpp)
        if lhs != (mid_sum[0] + rhs[0], mid_sum[1] + rhs[1]):
            return "arc-union homology classes are not additive"
        if mid_sum == (0, 0) and rhs == (0, 0) and lhs != (0, 0):
            return "two separating unions left a nonseparating third"
    return None


_SUITE = [
    ("clique_types", _check_clique_types),
    ("edge_tags", _check_edge_tags),
    ("necklace_witness", _check_necklace_witness),
    ("refutation", _check_refutation),
    ("annulus_width", _check_annulus_width),
    ("distance_path", _check_distance_path),
    ("germ_comparability", _check_germs),
    ("bouquet_chains", _check_bouquet_chains),
    ("unicorn_paths", _check_unicorns),
    ("homeo_action", _check_homeo),
    ("arc_homology", _check_arc_homology),
]


def cmd_suite(args) -> int:
    seed = args.seed if args.seed is not None else 0
    checks = []
    for name, fn in _SUITE:
        rng = random.Random(f"{seed}:{name}")
        try:
            detail = fn(rng, args.corrupt)
        except Exception as exc:
            detail = f"{type(exc).__name__}: {exc}"
        checks.append({"name": name, "ok": detail is None, "detail": detail})
        status = "ok  " if detail is None else "FAIL"
        sys.stdout.write(f"{status} {name}" + (f": {detail}" if detail else "") + "\n")
    ok = all(c["ok"] for c in checks)
    report = {"schema": SCHEMA, "seed": seed, "ok": ok, "checks": checks}
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "report.json").write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n"
        )
    sys.stdout.write(("suite: ok" if ok else "suite: FAIL") + "\n")
    return EXIT_OK if ok else EXIT_VIOLATION


# -------------------------------------------------------------- entry point


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a ParseFailure, so that ``main`` prints it as
    one stderr line and exits 2, as it does for any other parse error."""

    def error(self, message):
        raise ParseFailure(message)


def build_parser():
    parser = _Parser(
        prog="finegraph",
        description="Exact computations in fine curve graphs of the torus "
        "and annuli.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def operand_options(p):
        p.add_argument("input", help="JSON input file")
        p.add_argument("--svg", metavar="PATH", help="write an advisory SVG rendering")
        p.add_argument(
            "--model",
            choices=[m.value for m in SurfaceModel],
            default=None,
            help="surface model for operands without an explicit one",
        )

    p = sub.add_parser("classify", help="edge tag of 2 curves or type of a 3-clique")
    operand_options(p)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("width", help="relative width and distance of two operands")
    operand_options(p)
    p.add_argument("--path", action="store_true", help="also output an explicit geodesic")
    p.set_defaults(fn=cmd_width)

    p = sub.add_parser("verify-chain", help="validate a bouquet-chain certificate")
    p.add_argument("input", help="JSON input file")
    p.set_defaults(fn=cmd_verify_chain)

    p = sub.add_parser("suite", help="run the seeded property suite")
    p.add_argument("--seed", type=int, default=None, metavar="N")
    p.add_argument("--out", metavar="DIR", help="directory for reports")
    p.add_argument(
        "--corrupt",
        action="store_true",
        help="negative control: corrupt a fixture and expect a failure",
    )
    p.set_defaults(fn=cmd_suite)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except ParseFailure as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return EXIT_PARSE
    except NotAVertex as exc:
        sys.stderr.write(f"not a vertex: {exc}\n")
        return EXIT_NOT_A_VERTEX
    except (ModelMismatch,) as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
