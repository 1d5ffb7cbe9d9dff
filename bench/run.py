"""finegraph benchmark: four fixed-work workloads, end-to-end metrics from an
untraced run, per-layer metrics from a traced run.

    python3 bench/run.py --workload automorphism --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 15 --trace 1

Each workload runs in fresh single-threaded processes started one after
another.  With --trace 0 the run starts the workload three times: twice to
time set-up alone and once to time the operations; setup_s is the median of
the three set-ups.  With --trace 1 it runs the workload untraced and then
traced, and reports the per-layer metrics of the traced run and the tracing
overhead.  Every metric is printed by name and unit; the last line of
standard output is a JSON object with correct, attempted, failed and
metrics.  The exit code is 0 when every process finished, whatever the
checks found.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402

WORKLOADS = ("clique-classify", "automorphism", "witness-search", "annulus-width")
DEADLINE_S = 170
ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class WorkerFailed(RuntimeError):
    pass


def _worker(name, seed, seconds, deadline, setup_only=False, trace_path=None):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds)]
    if setup_only:
        cmd.append("--setup-only")
    if trace_path:
        cmd += ["--trace", str(trace_path)]
    left = deadline - time.monotonic()
    if left <= 0:
        raise WorkerFailed("out of time")
    t0 = time.monotonic_ns()
    try:
        proc = subprocess.run(cmd + ["--t0", str(t0)], capture_output=True, text=True,
                              timeout=left, env={**os.environ, **ENV}, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"{name}: worker did not finish in time")
    if proc.returncode != 0:
        raise WorkerFailed(f"{name}: worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail_ms(times_ms):
    """The highest order statistic with at least ten samples beyond it."""
    ordered = sorted(times_ms)
    return ordered[len(ordered) - 11]


def end_to_end(name, seed, seconds, deadline):
    setups = [_worker(name, seed, seconds, deadline, setup_only=True)["setup_s"]]
    main = _worker(name, seed, seconds, deadline)
    setups.append(main["setup_s"])
    setups.append(_worker(name, seed, seconds, deadline, setup_only=True)["setup_s"])
    times_ms = [t / 1e6 for t in main["times_ns"]]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(times_ms) / (main["busy_ns"] / 1e9), "1/s"),
        "op_p50_ms": (statistics.median(times_ms), "ms"),
        "op_tail_ms": (tail_ms(times_ms), "ms"),
        "peak_rss_mb": (main["peak_rss_mb"], "MB"),
    }
    return main, metrics


def per_layer(name, seed, seconds, deadline):
    plain = _worker(name, seed, seconds, deadline)
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    traced = _worker(name, seed, seconds, deadline, trace_path=out / f"trace-{name}.csv")
    rate = len(plain["times_ns"]) / plain["busy_ns"]
    traced_rate = len(traced["times_ns"]) / traced["busy_ns"]
    metrics = {k: (v, spans.UNITS[k.rsplit(".", 1)[1]]) for k, v in traced["per_layer"].items()}
    metrics["trace.overhead_pct"] = (100 * (rate / traced_rate - 1), "%")
    return traced, metrics


def run_one(name, seed, seconds, traced, deadline):
    result, metrics = (per_layer if traced else end_to_end)(name, seed, seconds, deadline)
    attempted = result["attempted"]
    print(f"== {name}  seed {seed}  attempted {attempted}  failed {result['failed']}  "
          f"correct {result['correct']}")
    for msg in result["errors"] + result["wrong"]:
        print(f"   {msg}")
    n = len(result["times_ns"])
    print(f"   tail = sample {n - 10} of {n} (p{100 * (n - 10) / n:.1f}), 10 beyond")
    for key, (value, unit) in metrics.items():
        print(f"   {key:48s} {value:14.4f} {unit}")
    return {
        "correct": result["correct"],
        "attempted": attempted,
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "finegraph" / "__init__.py").is_file():
        sys.exit(f"no finegraph sources under {ROOT / 'src'}")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        deadline = time.monotonic() + DEADLINE_S
        try:
            results.append(run_one(name, args.seed, args.seconds, args.trace, deadline))
        except WorkerFailed as exc:
            sys.exit(str(exc))
    for res in results:
        print(json.dumps(res))


if __name__ == "__main__":
    main()
