"""Regenerate the witness-search operand pool, data/witness_pool.json.

    python3 bench/make_pool.py

Candidates come from finegraph.generators at a fixed seed: refutation
triples of each type with 0, 1 and 2 alpha curves, and chain triples.  Each
candidate is run once.  It enters the pool only if the operation succeeds
within the time cap and passes the benchmark's own output check; the others
are counted by reason in the file, because they are faults or slow cases of
the program that a timed workload cannot hold (a run must finish every
operation, and in bounded time).  No curve appears in two entries.
"""

from __future__ import annotations

import json
import random
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from finegraph import arc_graphs, fine_graph  # noqa: E402
from finegraph.generators import rand_chain_triple, rand_clique3, rand_vertex  # noqa: E402

import oracle  # noqa: E402
from workloads import POOL, check_chain, check_refutation  # noqa: E402

SEED = 2210
PER_BUCKET = 16
CHAINS = 72
CAP_S = {"refute": 4.0, "chain": 2.0}
TYPES = ("all_disjoint", "two_pair", "bouquet")


class _Slow(BaseException):
    """Raised by the timer; not an Exception, so that the program's own
    ``except Exception`` blocks cannot swallow it."""


def _alarm(signum, frame):
    raise _Slow()


def _key(curve):
    """A curve up to deck translation: its first point on the torus and the
    shape of its lift."""
    p0 = curve.lift[0]
    return oracle.rep(p0), tuple((x - p0[0], y - p0[1]) for x, y in curve.lift)


def _lifts(curves):
    return [[[str(x), str(y)] for x, y in c.lift] for c in curves]


def main():
    rng = random.Random(SEED)
    signal.signal(signal.SIGALRM, _alarm)
    seen = set()
    entries, excluded = [], {}
    wanted = {f"{t}:{k}": PER_BUCKET for t in TYPES for k in range(3)}
    wanted["chain"] = CHAINS
    while any(wanted.values()):
        bucket = next(b for b, n in wanted.items() if n)
        try:
            if bucket == "chain":
                curves, alphas = rand_chain_triple(rng), []
            else:
                typ, k = bucket.split(":")
                curves = rand_clique3(rng, typ)
                alphas = [rand_vertex(rng) for _ in range(int(k))]
        except RuntimeError:
            continue
        keys = [_key(c) for c in curves + alphas]
        if seen & set(keys) or len(set(keys)) < len(keys):
            continue
        kind = "chain" if bucket == "chain" else "refute"
        t = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, CAP_S[kind])
        try:
            if kind == "chain":
                cert = arc_graphs.bouquet_chain(*curves)
                out = (cert, arc_graphs.verify_chain(cert))
            else:
                out = fine_graph.refute_N(*curves, alphas=alphas)
            signal.setitimer(signal.ITIMER_REAL, 0)
        except _Slow:
            reason = f"{kind} over {CAP_S[kind]} s"
            excluded[reason] = excluded.get(reason, 0) + 1
            print(f"{bucket:16s} excluded: {reason}", flush=True)
            continue
        except Exception as exc:
            signal.setitimer(signal.ITIMER_REAL, 0)
            reason = f"{kind} raises {type(exc).__name__}: {exc}"
            excluded[reason] = excluded.get(reason, 0) + 1
            print(f"{bucket:16s} excluded: {reason}", flush=True)
            continue
        elapsed = time.perf_counter() - t
        op = {"type": bucket.split(":")[0], "curves": curves, "alphas": alphas}
        bad = check_chain(out) if kind == "chain" else check_refutation(op, out)
        if bad:
            reason = f"{kind} output fails the check: {bad}"
            excluded[reason] = excluded.get(reason, 0) + 1
            print(f"{bucket:16s} excluded: {reason}", flush=True)
            continue
        seen |= set(keys)
        wanted[bucket] -= 1
        entries.append({"bucket": bucket, "curves": _lifts(curves), "alphas": _lifts(alphas)})
        print(f"{bucket:16s} {elapsed:6.2f} s", flush=True)
    POOL.parent.mkdir(exist_ok=True)
    POOL.write_text(json.dumps({"seed": SEED, "cap_s": CAP_S, "excluded": excluded,
                                "entries": entries}, indent=1) + "\n")
    print(json.dumps(excluded, indent=1))


if __name__ == "__main__":
    main()
