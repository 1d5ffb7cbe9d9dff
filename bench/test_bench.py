"""Tests of the benchmark itself: per-layer call counts repeat, no output
check is vacuous, the runner reports attempted and failed operations.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import oracle  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from finegraph import homeo_action  # noqa: E402

SMALL = {"clique-classify": 15, "automorphism": 3, "witness-search": 6, "annulus-width": 6}


def _worker(name, ops, hashseed, trace_path=None):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name, "--seed", "7",
           "--seconds", "1", "--ops", str(ops), "--t0", str(time.monotonic_ns())]
    if trace_path:
        cmd += ["--trace", str(trace_path)]
    env = {**os.environ, "PYTHONHASHSEED": str(hashseed)}
    out = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=170, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", list(SMALL))
def test_traced_calls_repeat_across_hash_seeds(name, tmp_path):
    runs = [_worker(name, SMALL[name], h, tmp_path / f"t{h}.csv") for h in (0, 12345)]
    calls = [{k: v for k, v in r["per_layer"].items() if k.endswith(".calls")} for r in runs]
    assert calls[0] == calls[1]
    assert sum(calls[0].values()) > 0
    assert all(r["failed"] == 0 and r["correct"] for r in runs)
    header = (tmp_path / "t0.csv").read_text().splitlines()[0]
    assert header == "op,span,parent,name,start_ns,end_ns"


def test_clique_check_rejects_wrong_type(tmp_path):
    w = workloads.CliqueClassify(tmp_path)
    ops = w.build(random.Random(3), w.round_size)
    op = next(o for o in ops if o["want"] == "necklace")
    code, text = w.run(op)
    assert w.check(op, (code, text)) is None
    verdict = json.loads(text)
    verdict["clique_type"] = "bouquet"
    assert w.check(op, (code, json.dumps(verdict))) is not None
    verdict["clique_type"] = "necklace"
    verdict["points"][0] = ["0", "0"]
    assert w.check(op, (code, json.dumps(verdict))) is not None


def test_width_check_rejects_dropped_path_vertex():
    w = workloads.AnnulusWidth()
    op = w._width_op(random.Random(3), workloads._Fresh(random.Random(4)), 3, "path")
    res, path = w.run(op)
    assert w.check(op, (res, path)) is None
    assert w.check(op, (res, path[:2] + path[3:])) is not None


def test_unicorn_check_rejects_dropped_arc():
    w = workloads.AnnulusWidth()
    op = w._unicorn_op(random.Random(3), workloads._Fresh(random.Random(4)), 12)
    path = w.run(op)
    assert w.check(op, path) is None
    assert w.check(op, path[:-2] + path[-1:]) is not None


def test_automorphism_check_rejects_wrong_apply(monkeypatch):
    w = workloads.Automorphism()
    op = w.build(random.Random(3), w.round_size)[1]
    assert w.check(op, w.run(op)) is None
    honest = homeo_action.apply

    def shifted(f, c):
        img = honest(f, c)
        return type(img)([(x + F(1, 7), y) for x, y in img.lift])

    monkeypatch.setattr(homeo_action, "apply", shifted)
    assert w.check(op, w.run(op)) is not None


def test_refutation_and_chain_checks_reject_wrong_outputs():
    w = workloads.WitnessSearch()
    ops = w.build(random.Random(3), w.round_size)
    refute = next(o for o in ops if o["type"] != "chain")
    chain = next(o for o in ops if o["type"] == "chain")
    d = w.run(refute)
    assert w.check(refute, d) is None
    assert w.check(refute, refute["curves"][0]) is not None
    cert, violations = w.run(chain)
    assert w.check(chain, (cert, violations)) is None
    assert w.check(chain, (cert, ["tampered"])) is not None
    cert.edges[-1].b = cert.edges[0].a
    assert w.check(chain, (cert, [])) is not None


def _points(value):
    """Every point of every curve, arc or germ an operation holds."""
    if isinstance(value, dict):
        return [p for v in value.values() for p in _points(v)]
    if isinstance(value, (list, tuple)):
        if value and isinstance(value[0], tuple) and isinstance(value[0][0], F):
            return list(value)
        return [p for v in value for p in _points(v)]
    for attr in ("lift", "generator"):
        if hasattr(value, attr):
            return list(getattr(value, attr))
    return []


def test_operands_are_fresh(tmp_path):
    for w in (workloads.CliqueClassify(tmp_path), workloads.Automorphism(),
              workloads.AnnulusWidth()):
        seen = set()
        for op in w.build(random.Random(5), 2 * w.round_size):
            pts = {oracle.rep(p) for p in _points(op)}
            assert pts and not pts & seen
            seen |= pts
    workloads.cleanup(tmp_path)


def test_measure_counts_attempted_and_failed():
    class Flaky:
        def run(self, op):
            if op == 2:
                raise ValueError("boom")
            return op

        def check(self, op, out):
            return None if op != 3 else "wrong"

    res = worker.measure(Flaky(), [0, 1, 2, 3])
    assert (res["attempted"], res["failed"], len(res["times_ns"])) == (4, 1, 3)
    assert not res["correct"] and res["wrong"] == ["op 3: wrong"]


def test_runner_reports_counts_and_metrics(capsys):
    run.main(["--workload", "clique-classify", "--seed", "2", "--seconds", "1", "--trace", "0"])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["attempted"] >= 40 and last["failed"] == 0 and last["correct"]
    assert set(last["metrics"]) == {"setup_s", "ops_per_s", "op_p50_ms", "op_tail_ms",
                                    "peak_rss_mb"}
    assert all(m["value"] > 0 for m in last["metrics"].values())


def test_runner_knows_every_workload():
    assert run.WORKLOADS == tuple(workloads.WORKLOADS)


def test_tail_has_ten_samples_beyond():
    assert run.tail_ms(list(range(40))) == 29
    assert run.tail_ms(list(range(1500))) == 1489


def test_runner_refuses_a_tree_without_sources(tmp_path):
    (tmp_path / "bench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "bench" / f.name).write_text(f.read_text())
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "automorphism",
                           "--seed", "1", "--seconds", "1"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and not proc.stdout.strip()
