"""One benchmark process: import ``semitoric``, warm up, then run rounds.

Usage (from ``run.py``): ``python3 worker.py '<json config>'``.  The config
names the repository root, workload, seed, mode and scratch directory.
Modes:

- ``setup``: import and warm up only; report the set-up time.
- ``timed``: set up, then run whole rounds until the jobs' summed wall time
  reaches ``seconds``.
- ``reference`` / ``traced``: set up, then run exactly ``rounds`` rounds,
  untraced or traced, and report a digest of every job's stdout.

Each job is one in-process ``semitoric.cli.main(argv)`` call whose stdout
and stderr are captured; only that call is timed.  Its answer is checked
right after, outside the timing.  The last line on stdout is the result.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import time

import checkers
import workloads


def run_job(cli, job):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            rc = cli.main(job["argv"])
            elapsed = time.perf_counter() - start
    except SystemExit as e:
        raise checkers.WrongAnswer(f"{job['argv']} left through SystemExit({e.code}): {err.getvalue()}") from None
    return rc, out.getvalue(), err.getvalue(), elapsed


def run_rounds(cli, cfg, tracer=None):
    """Run rounds; return per-job (seconds, outcome, digest, bytes) records."""
    records = []
    total = 0.0
    r = 0
    while True:
        directory = os.path.join(cfg["workdir"], f"round{r}")
        for job in workloads.make_round(cfg["workload"], cfg["seed"], r, directory):
            if tracer is not None:
                tracer.job = len(records)
            rc, out, err, elapsed = run_job(cli, job)
            if tracer is not None:
                tracer.job = -1
            outcome = checkers.check(job, rc, out, err)
            size = sum(os.path.getsize(p) for p in job["inputs"]) + len(out.encode())
            records.append((elapsed, outcome, hashlib.sha256(out.encode()).hexdigest(), size))
            total += elapsed
        shutil.rmtree(directory)
        r += 1
        if cfg["mode"] == "timed" and total >= cfg["seconds"]:
            break
        if cfg["mode"] != "timed" and r >= cfg["rounds"]:
            break
    return records, r


def main(argv):
    cfg = json.loads(argv[1])
    src = os.path.join(cfg["root"], "src")
    sys.path.insert(0, src)
    start = time.perf_counter()
    import semitoric
    import semitoric.cli as cli

    where = os.path.realpath(semitoric.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"semitoric imported from {where}, not from {src}")
    warmup = os.path.join(cfg["workdir"], "warmup")
    for job in workloads.warmup_jobs(warmup):
        rc, out, err, _ = run_job(cli, job)
        if checkers.check(job, rc, out, err) != "answer":
            raise checkers.WrongAnswer(f"warm-up job {job['argv']} gave no answer")
    setup_s = time.perf_counter() - start
    shutil.rmtree(warmup)
    result = {"setup_s": setup_s}
    if cfg["mode"] != "setup":
        tracer = None
        if cfg["mode"] == "traced":
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        records, rounds = run_rounds(cli, cfg, tracer)
        result.update(
            rounds=rounds,
            jobs=[[t, outcome] for t, outcome, _, _ in records],
            maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        )
        if cfg["mode"] != "timed":
            result["digests"] = [d for _, _, d, _ in records]
        if tracer is not None:
            result["layers"] = tracer.metrics()
            result["layers"]["formats.bytes"] = (sum(s for *_, s in records), "bytes")
            result["missing"] = tracer.missing
            tracer.dump(cfg["trace_out"])
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    try:
        main(sys.argv)
    except checkers.WrongAnswer as e:
        print(f"wrong answer: {e}", file=sys.stderr)
        sys.exit(1)
