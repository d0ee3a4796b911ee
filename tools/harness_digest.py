#!/usr/bin/env python3
"""Digest of every CLI report the benchmark's job streams produce.

Draws the first ROUNDS rounds of every workload in bench/workloads.py at
seeds 1-8, each workload's stream from random.Random(f"{name}/{seed}")
as bench/run.py draws it, runs every job in process through
frobkit.cli.run, and prints one line per job: workload, seed, kind, exit
status, and the sha256 of its stdout and of its stderr.  A refactor that
must leave every report byte-identical is checked by diffing the output
of two trees:

    python3 tools/harness_digest.py > before.txt   # in the old tree
    python3 tools/harness_digest.py > after.txt    # in the new tree
    diff before.txt after.txt

The job checks of the benchmark are not run; frobkit is imported from
src/ of the tree this script sits in.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SEEDS = range(1, 9)
ROUNDS = 4


def reports(tree: str = ROOT):
    """(workload, seed, kind, status, stdout, stderr) of every harness job,
    run in process with frobkit imported from src/ of tree."""
    sys.path[:0] = [os.path.join(tree, "src"), tree, os.path.join(tree, "bench")]
    from bench.workloads import WORKLOADS
    from frobkit.cli import run

    # the jobs' default precision must not depend on the caller's environment
    os.environ.pop("FROBKIT_PRECISION", None)
    for name, spec in WORKLOADS.items():
        for seed in SEEDS:
            rng = random.Random(f"{name}/{seed}")
            for _ in range(ROUNDS):
                for job in spec["round"](rng):
                    out, err = io.StringIO(), io.StringIO()
                    with contextlib.redirect_stdout(out), \
                            contextlib.redirect_stderr(err):
                        try:
                            status = run(job.argv)
                        except Exception as exc:  # a traceback names paths
                            status = f"raised {type(exc).__name__}: {exc}"
                    yield name, seed, job.kind, status, out.getvalue(), err.getvalue()


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def main() -> int:
    for name, seed, kind, status, out, err in reports():
        print(f"{name} {seed} {kind} {status} {_sha(out)} {_sha(err)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
