"""Digests of finegraph's outputs, for checking that a change keeps them
byte-identical.

For each workload of ``bench/workloads.py`` this prints the number of
operations and a SHA-256 over the ``repr`` of every operation's output: the
operations a benchmark run of that seed times, followed by its warm-up
operation.  An automorphism operation's output is the empty violation list
whenever the check passes, so its digest also covers the image
``homeo_action.apply(f, c)`` of each curve of its universe.  It then prints
the SHA-256 of the standard output of ``finegraph suite --seed 0`` and of
``finegraph classify`` on the example operand in README.md.  Run it on two
checkouts and compare the lines:

    python3 tools/output_digest.py --seed 1

It only reads ``bench/`` and ``README.md``; the finegraph it runs is the one
under ``src/`` of the checkout that holds this file.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import re
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from finegraph import cli, homeo_action  # noqa: E402
import workloads  # noqa: E402


def workload_digest(name: str, seed: int, seconds: int, workdir: Path) -> tuple[int, str]:
    """The operation list of worker.py (whole rounds, then the warm-up
    operation of the extra round) and the digest of their outputs."""
    w = workloads.make(name, workdir / name)
    n_ops = workloads.op_count(name, seconds)
    n_ops = -(-n_ops // w.round_size) * w.round_size
    ops = w.build(workloads.seed_rng(name, seed), n_ops + w.round_size)
    run = ops[:n_ops] + [ops[n_ops + 1]]
    h = hashlib.sha256()
    for op in run:
        h.update(repr(w.run(op)).encode() + b"\n")
        if name == "automorphism":
            images = [homeo_action.apply(op["f"], c) for c in op["universe"]]
            h.update(repr(images).encode() + b"\n")
    workloads.cleanup(workdir / name)
    return len(run), h.hexdigest()


def cli_digest(argv: list[str]) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    return hashlib.sha256(f"{code}\n{buf.getvalue()}".encode()).hexdigest()


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=15,
                    help="run length the operation count is taken from (default 15)")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name in workloads.WORKLOADS:
            n, digest = workload_digest(name, args.seed, args.seconds, tmp)
            print(f"{name:16s} {n:4d} ops  {digest}")
        print(f"{'suite --seed 0':16s}           {cli_digest(['suite', '--seed', '0'])}")
        example = re.search(r"```json\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
        operand = tmp / "readme.json"
        operand.write_text(example.group(1))
        print(f"{'README classify':16s}           {cli_digest(['classify', str(operand)])}")


if __name__ == "__main__":
    main()
