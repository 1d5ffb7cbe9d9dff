import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import finegraph

from finegraph.arc_graphs import bouquet_chain
from finegraph.cli import main
from finegraph.generators import rand_chain_triple

F = Fraction


def pts(path):
    return [[str(F(x)), str(F(y))] for x, y in path]


def torus(path):
    return {"model": "torus", "lift": pts(path)}

def cannulus(path):
    return {"model": "cannulus", "lift": pts(path)}


def oannulus(path, end_rays):
    return {"model": "oannulus", "lift": pts(path), "end_rays": end_rays}


NECKLACE_FIXTURE = {
    "curves": [
        torus([(0, F(1, 2)), (1, F(1, 2))]),
        torus([(F(1, 2), 0), (F(1, 2), 1)]),
        torus([(0, F(1, 4)), (1, F(5, 4))]),
    ]
}

BOUQUET_FIXTURE = {
    "curves": [torus([(0, 0), (1, 0)]), torus([(0, 0), (0, 1)]), torus([(0, 0), (1, 1)])]
}


def winding(k):
    path = [(F(0), F(0))]
    for i in range(k):
        path.append((F(i) + F(1, 2), F(2 * i + 1, 2 * k)))
    path.append((F(k), F(1)))
    return cannulus(path)


SPIRAL_GERM = {
    "prefix": [],
    "generator": pts(
        [(0, 1), (F(-3, 4), F(3, 5)), (F(-4, 5), F(-1, 5)), (F(-1, 5), F(-3, 4)),
         (F(1, 2), F(-1, 2)), (F(3, 5), F(1, 5)), (0, F(1, 2))]
    ),
    "lambda": "1/2",
    "rot": ["1", "0"],
}

RAY_GERM = {"prefix": [], "generator": pts([(1, 2), (F(1, 2), 1)]), "lambda": "1/2", "rot": ["1", "0"]}


def run(tmp_path, capsys, fixture, *argv):
    f = tmp_path / "input.json"
    f.write_text(json.dumps(fixture))
    code = main([argv[0], str(f), *argv[1:]])
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.lstrip().startswith("{") else out)


def test_classify_necklace(tmp_path, capsys):
    code, out = run(tmp_path, capsys, NECKLACE_FIXTURE, "classify")
    assert code == 0
    assert out["clique_type"] == "necklace"
    assert out["schema"] == "finegraph/1"


def test_classify_bouquet(tmp_path, capsys):
    code, out = run(tmp_path, capsys, BOUQUET_FIXTURE, "classify")
    assert code == 0 and out["clique_type"] == "bouquet"


def test_classify_pair_edge(tmp_path, capsys):
    fix = {"curves": [torus([(0, F(1, 2)), (1, F(1, 2))]), torus([(F(1, 3), 0), (F(1, 3), 1)])]}
    code, out = run(tmp_path, capsys, fix, "classify")
    assert code == 0
    assert out["edge"] == "transverse" and out["point"] == ["1/3", "1/2"]


def test_classify_separating_exits_3(tmp_path, capsys):
    square = [(0, 0), (F(1, 4), 0), (F(1, 4), F(1, 4)), (0, F(1, 4)), (0, 0)]
    fix = {"curves": [torus(square), torus([(0, F(1, 2)), (1, F(1, 2))])]}
    code, _ = run(tmp_path, capsys, fix, "classify")
    assert code == 3


def test_parse_error_exits_2(tmp_path, capsys):
    code, _ = run(tmp_path, capsys, {"nonsense": 1}, "classify")
    assert code == 2


def test_width_disjoint_verticals(tmp_path, capsys):
    fix = {"a": cannulus([(F(1, 4), 0), (F(1, 4), 1)]),
           "b": cannulus([(F(3, 4), 0), (F(3, 4), 1)])}
    code, out = run(tmp_path, capsys, fix, "width")
    assert code == 0
    assert out["width"] == 0 and out["distance"] == 1 and out["K"] == []


def test_width_three_winding_with_path(tmp_path, capsys):
    fix = {"a": cannulus([(F(1, 3), 0), (F(1, 3), 1)]), "b": winding(3)}
    code, out = run(tmp_path, capsys, fix, "width", "--path")
    assert code == 0
    assert out["width"] == 3 and out["distance"] == 4
    assert len(out["path"]) == 5


@pytest.mark.parametrize(
    "fix, want",
    [
        # a lift of class (5,0) that is not simple: not a vertex
        ({"a": {"lift": [["0", "1/3"], ["5", "1/3"]]},
          "b": {"lift": [["0", "2/3"], ["1", "2/3"]]}}, 3),
        # simple vertices of classes (7,1) and (1,7): no common cut class
        ({"a": {"lift": [["0", "0"], ["7", "1"]]},
          "b": {"lift": [["0", "1/2"], ["1", "15/2"]]}}, 5),
        # two germs with different contraction factors
        ({"a": RAY_GERM,
          "b": dict(RAY_GERM, generator=pts([(1, 2), (F(1, 3), F(2, 3))]),
                    **{"lambda": "1/3"})}, 5),
    ],
)
def test_width_rejects_without_traceback(tmp_path, capsys, fix, want):
    f = tmp_path / "input.json"
    f.write_text(json.dumps(fix))
    code = main(["width", str(f)])
    err = capsys.readouterr().err
    assert code == want
    assert "Traceback" not in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "fix",
    [
        # a germ rotation with one entry, given as a string, with three
        # entries or with none
        {"a": dict(RAY_GERM, rot=["1"]), "b": RAY_GERM},
        {"a": dict(RAY_GERM, rot="10"), "b": RAY_GERM},
        {"a": dict(RAY_GERM, rot=["1", "0", "7"]), "b": RAY_GERM},
        {"a": dict(RAY_GERM, rot=[]), "b": RAY_GERM},
        # a contraction factor with a zero denominator
        {"a": dict(RAY_GERM, **{"lambda": "1/0"}), "b": RAY_GERM},
        # an annulus lift repeating a point
        {"a": cannulus([(F(1, 4), 0), (F(1, 4), F(1, 2)), (F(1, 4), F(1, 2)), (F(1, 4), 1)]),
         "b": cannulus([(F(3, 4), 0), (F(3, 4), 1)])},
        # open-annulus ray signs: one entry, a string, a sign out of range, a
        # JSON boolean
        {"a": oannulus([(0, 0), (0, 1)], [5]), "b": oannulus([(1, 0), (1, 1)], [0, 0])},
        {"a": oannulus([(0, 0), (0, 1)], "ab"), "b": oannulus([(1, 0), (1, 1)], [0, 0])},
        {"a": oannulus([(0, 0), (0, 1)], [2, 0]), "b": oannulus([(1, 0), (1, 1)], [0, 0])},
        {"a": oannulus([(0, 0), (0, 1)], [True, 0]), "b": oannulus([(1, 0), (1, 1)], [0, 0])},
    ],
    ids=["short_rot", "string_rot", "long_rot", "empty_rot", "lambda_over_zero",
         "repeated_point", "short_end_rays", "string_end_rays", "end_ray_out_of_range",
         "boolean_end_ray"],
)
def test_width_malformed_operand_exits_2(tmp_path, capsys, fix):
    f = tmp_path / "input.json"
    f.write_text(json.dumps(fix))
    code = main(["width", str(f)])
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err and err.count("\n") == 1


def test_classify_runs_without_numpy(tmp_path):
    f = tmp_path / "necklace.json"
    f.write_text(json.dumps(NECKLACE_FIXTURE))
    src = str(Path(finegraph.__file__).resolve().parent.parent)
    script = (
        "import sys; sys.path.insert(0, sys.argv[1]);"
        "from finegraph.cli import main; code = main(['classify', sys.argv[2]]);"
        "print('numpy' in sys.modules); sys.exit(code)"
    )
    done = subprocess.run(
        [sys.executable, "-c", script, src, str(f)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert '"clique_type": "necklace"' in done.stdout
    assert done.stdout.rstrip().endswith("False")


def test_width_infinite_germ(tmp_path, capsys):
    fix = {"a": RAY_GERM, "b": SPIRAL_GERM}
    code, out = run(tmp_path, capsys, fix, "width")
    assert code == 0
    assert out["width"] == "inf" and out["comparable"] is False


def test_width_infinite_with_path_exits_4(tmp_path, capsys):
    fix = {"a": RAY_GERM, "b": SPIRAL_GERM}
    code, _ = run(tmp_path, capsys, fix, "width", "--path")
    assert code == 4


def test_verify_chain_accepts_and_rejects(tmp_path, capsys):
    cert = bouquet_chain(*rand_chain_triple(random.Random(5))).to_json()
    code, out = run(tmp_path, capsys, cert, "verify-chain")
    assert code == 0 and out["accepted"]

    bad = json.loads(json.dumps(cert))
    bad["moves"][0][1] = [
        [str(F(x) + F(1, 3)), y] for x, y in bad["moves"][0][1]
    ]
    code, out = run(tmp_path, capsys, bad, "verify-chain")
    assert code == 1 and not out["accepted"] and out["violations"]


@pytest.mark.parametrize(
    "mutate",
    [
        lambda cert: cert.update(point=["1/2"]),
        lambda cert: cert.update(point=["1/0", "0"]),
        lambda cert: cert.update(point=["172/273", "1/2", "7"]),
        lambda cert: cert["moves"][0].pop(),
        lambda cert: cert["moves"][0].append(cert["moves"][0][0]),
    ],
    ids=["short_point", "zero_denominator", "long_point", "two_curve_move", "four_curve_move"],
)
def test_verify_chain_malformed_point_exits_2(tmp_path, capsys, mutate):
    cert = bouquet_chain(*rand_chain_triple(random.Random(5))).to_json()
    assert cert["moves"]
    mutate(cert)
    f = tmp_path / "input.json"
    f.write_text(json.dumps(cert))
    code = main(["verify-chain", str(f)])
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err and err.count("\n") == 1


def assert_usage_error(capsys, argv):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.endswith("\n")
    assert "usage:" not in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-chain", "cert.json", "--seed", "1"],
        ["verify-chain", "cert.json", "--model", "torus"],
        ["classify", "in.json", "--out", "reports"],
        ["width", "in.json", "--seed", "1"],
        ["suite", "--svg", "fig.svg"],
    ],
    ids=["verify_chain_seed", "verify_chain_model", "classify_out", "width_seed", "suite_svg"],
)
def test_option_a_subcommand_does_not_read_exits_2(capsys, argv):
    assert_usage_error(capsys, argv)


@pytest.mark.parametrize(
    "argv",
    [["classify"], ["width"], ["verify-chain"], []],
    ids=["classify", "width", "verify_chain", "no_subcommand"],
)
def test_missing_input_or_subcommand_exits_2(capsys, argv):
    assert_usage_error(capsys, argv)


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out


def test_svg_is_written(tmp_path, capsys):
    f = tmp_path / "in.json"
    f.write_text(json.dumps(NECKLACE_FIXTURE))
    svg = tmp_path / "fig.svg"
    assert main(["classify", str(f), "--svg", str(svg)]) == 0
    capsys.readouterr()
    assert svg.read_text().startswith("<svg")


def test_suite_deterministic_and_green(tmp_path, capsys):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["suite", "--seed", "11", "--out", str(out1)]) == 0
    assert main(["suite", "--seed", "11", "--out", str(out2)]) == 0
    capsys.readouterr()
    b1 = (out1 / "report.json").read_bytes()
    assert b1 == (out2 / "report.json").read_bytes()
    assert json.loads(b1)["ok"] is True


def test_suite_negative_control_names_invariant(tmp_path, capsys):
    code = main(["suite", "--seed", "0", "--corrupt"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL edge_tags" in out
    assert "alternating branches" in out
