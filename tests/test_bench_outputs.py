"""Byte-identity guard for the benchmark's own jobs.

The job streams of ``perfbench/workloads.py`` are imported read-only.  For
each workload the warm-up jobs and rounds 0 and 1 at seed 4242 run in a
temporary directory through ``cli.main``, one call at a time as the
benchmark worker runs them, and one sha256 over every job's exit code and
stdout, in order, is compared with the digest recorded before the last
change to the library.  A change to ``workloads.py`` changes the jobs, so
it must record these digests again.
"""

import contextlib
import hashlib
import io
import sys
from pathlib import Path

import pytest

from semitoric import cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

SEED = 4242
ROUNDS = 2

DIGESTS = {
    "cusp-sweep": "35580efc81f236fc183ca31b14642d32af0495c235ab3105c46c0cafd38912ca",
    "fan-validate": "3ee499b385d8080e9391915b6300deb0b49d14eaefff02c06677a4967f8512dd",
    "algebra": "ab07939929c669f539a2c6b55515e1ec900a54458619857cdebfb6d8887106d1",
}


def workload_digest(workload: str, root: Path) -> str:
    digest = hashlib.sha256()
    jobs = workloads.warmup_jobs(str(root / "warmup"))
    for r in range(ROUNDS):
        jobs += workloads.make_round(workload, SEED, r, str(root / f"round{r}"))
    for job in jobs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(job["argv"])
        digest.update(f"{code}\n".encode())
        digest.update(out.getvalue().encode())
    return digest.hexdigest()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_benchmark_job_outputs_are_unchanged(workload, tmp_path):
    assert workload_digest(workload, tmp_path) == DIGESTS[workload]
