"""Benchmark driver: answered ``semitoric`` CLI jobs per second.

    python3 perfbench/run.py --workload fan-validate --seed 1 --seconds 32 --trace 0

Run it from the repository root.  Every job runs in a worker process
(``worker.py``) that imports ``semitoric`` from ``src/``, so each run is a
fresh process with fresh caches; jobs run one at a time (one client, closed
loop, no threads).  Every answer is checked against ``checkers.py``; a wrong
answer or an uncaught exception ends the run with a nonzero exit and no
result.

With ``--trace 0`` the last stdout line holds the end-to-end metrics:
set-up time (median of five fresh processes), answers per second, median
and tail job time, the share of jobs answered, and peak memory.  With
``--trace 1`` it holds the per-layer metrics of a traced pass over a fixed
number of rounds, plus the tracing overhead: the median, over three pairs of
fresh processes, of traced over untraced job time on the same rounds.  The
spans of the last traced pass go to ``.perfbench/trace/``.  Metric
definitions live in ``benchmark_meta.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_SAMPLES = 5
TRACE_PAIRS = 3
DEADLINE_S = 170


def spawn(cfg, deadline):
    """Run one worker to completion and return its result object."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(cfg)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{cfg['mode']} worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values, p):
    """Nearest-rank percentile: the smallest value with at least p% of the
    samples at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def end_to_end(setups, timed, tail_p):
    jobs = timed["jobs"]
    answered = [t for t, outcome in jobs if outcome == "answer"]
    wall = sum(t for t, _ in jobs)
    if not answered:
        raise RuntimeError("no job was answered")
    return {
        "setup_s": (statistics.median(setups), "s"),
        "answers_per_s": (len(answered) / wall, "1/s"),
        "job_p50_ms": (1000 * statistics.median(answered), "ms"),
        "job_tail_ms": (1000 * percentile(answered, tail_p), "ms"),
        "answer_ratio": (len(answered) / len(jobs), "ratio"),
        "peak_rss_mb": (timed["maxrss_kb"] / 1024, "MB"),
    }


def measure(args, workdir, deadline):
    base = {"root": ROOT, "workload": args.workload, "seed": args.seed, "workdir": workdir}
    if args.trace:
        rounds = workloads.TRACE_ROUNDS[args.workload]
        trace_dir = os.path.join(ROOT, ".perfbench", "trace")
        os.makedirs(trace_dir, exist_ok=True)
        # Untraced and traced passes alternate so that a slow stretch of the
        # machine does not fall on one side only; the overhead is the median
        # of the per-pair ratios.
        ratios = []
        for _ in range(TRACE_PAIRS):
            ref = spawn(dict(base, mode="reference", rounds=rounds), deadline)
            traced = spawn(dict(base, mode="traced", rounds=rounds, trace_out=os.path.join(
                trace_dir, f"{args.workload}-seed{args.seed}.json.gz")), deadline)
            if ref["digests"] != traced["digests"]:
                raise RuntimeError("job stdout differs between the traced and untraced passes")
            ratios.append(sum(t for t, _ in traced["jobs"]) / sum(t for t, _ in ref["jobs"]))
        for name in traced["missing"]:
            print(f"trace: {name} is missing", file=sys.stderr)
        metrics = dict(traced["layers"])
        metrics["trace.overhead_ratio"] = (statistics.median(ratios), "ratio")
        if metrics["trace.overhead_ratio"][0] < 1:
            print("trace: overhead below the run-to-run noise, unresolved", file=sys.stderr)
        return traced["jobs"], metrics
    # Set-up samples are split around the timed worker so that one slow
    # stretch of the machine does not decide their median.
    setup = dict(base, mode="setup")
    setups = [spawn(setup, deadline)["setup_s"] for _ in range(SETUP_SAMPLES // 2)]
    timed = spawn(dict(base, mode="timed", seconds=args.seconds), deadline)
    setups.append(timed["setup_s"])
    setups += [spawn(setup, deadline)["setup_s"] for _ in range(SETUP_SAMPLES - len(setups))]
    return timed["jobs"], end_to_end(setups, timed, workloads.TAIL_PERCENTILE[args.workload])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "semitoric", "cli.py")):
        print(f"no semitoric sources under {ROOT}/src", file=sys.stderr)
        return 2
    workdir = os.path.join(ROOT, ".perfbench", "work", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        jobs, metrics = measure(args, workdir, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": True,
        "attempted": len(jobs),
        "failed": sum(1 for _, outcome in jobs if outcome == "failed"),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
