"""One workload in one fresh single-threaded process.

Started by run.py; not meant to be run by hand.  Set-up (import, corpus,
input files, one untimed warm-up operation) is timed from the parent's
clock reading taken just before it started this process.  Each operation
is timed on its own with a monotonic clock; its output is checked after
the clock stops.  The last line of standard output is a JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]


def measure(w, ops, tracer=None):
    """Run the operations in order, timing each call alone; check outputs
    after the clock stops.  A raising operation counts as failed; its time
    counts towards busy time but not towards the latency samples."""
    times, errors, wrong = [], [], []
    busy = 0
    clock = time.perf_counter_ns
    for i, op in enumerate(ops):
        if tracer:
            tracer.op = i + 1
        t = clock()
        try:
            out = w.run(op)
        except Exception as exc:  # a failed operation is counted, not fatal
            busy += clock() - t
            errors.append(f"op {i}: {type(exc).__name__}: {exc}")
            continue
        dt = clock() - t
        busy += dt
        times.append(dt)
        if tracer:
            tracer.op = 0
        bad = w.check(op, out)
        if bad:
            wrong.append(f"op {i}: {bad}")
    return {"attempted": len(ops), "failed": len(errors), "busy_ns": busy, "times_ns": times,
            "errors": errors[:5], "wrong": wrong[:5], "correct": not wrong}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--ops", type=int, help="operation count; default from --seconds")
    ap.add_argument("--t0", type=int, required=True, help="parent's monotonic_ns at spawn")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", metavar="PATH", help="record spans and write them here")
    args = ap.parse_args()

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    import finegraph
    import workloads

    if Path(finegraph.__file__).resolve().parent != ROOT / "src" / "finegraph":
        sys.exit(f"finegraph imported from {finegraph.__file__}, not from this checkout")

    workdir = ROOT / ".bench_out" / f"{args.workload}-{os.getpid()}"
    w = workloads.make(args.workload, workdir)
    n_ops = args.ops or workloads.op_count(args.workload, args.seconds)
    n_ops = -(-n_ops // w.round_size) * w.round_size
    try:
        ops = w.build(workloads.seed_rng(args.workload, args.seed), n_ops + w.round_size)
        warm = ops[n_ops + 1]
        if tracer:
            tracer.op = -1
        bad = w.check(warm, w.run(warm))
        if bad:
            sys.exit(f"warm-up operation: {bad}")
        setup_s = (time.monotonic_ns() - args.t0) / 1e9
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return
        result = measure(w, ops[:n_ops], tracer)
    finally:
        workloads.cleanup(workdir)
    result["setup_s"] = setup_s
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        result["per_layer"] = tracer.metrics()
        tracer.write(args.trace)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
