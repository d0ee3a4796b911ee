#!/usr/bin/env python3
"""frobkit benchmark: seeded job streams through the CLI, with output checks.

One workload, in the form BENCHMARK.json names:

    python3 bench/run.py --workload xi-rank2 --seed 1 --seconds 28 --trace 0

All four workloads, each in a fresh interpreter, as a table:

    python3 bench/run.py --seed 1 --seconds 28

A workload runs as a closed loop with one client: the next job is sent
when the previous one has returned and been checked.  Jobs are whole
rounds (see workloads.py); a new round starts only while the run is
expected to end within --seconds.  With --trace 0 the last stdout line
is a JSON object with the end-to-end metrics; with --trace 1 the run
does a fixed number of rounds with every layer traced (tracing.py) and
reports the per-layer metrics instead.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, BENCH_DIR)

from workloads import WORKLOADS, CheckError  # noqa: E402

SETUP_SAMPLES = 5  # set-ups per run: this process plus fresh interpreters
CHILD_TIMEOUT_S = 150


def _import_cli():
    """Import frobkit from this checkout's src/, nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "frobkit", "__init__.py")):
        sys.exit(f"bench: no frobkit sources under {SRC}")
    sys.path.insert(0, SRC)
    import frobkit
    import frobkit.cli

    if os.path.dirname(os.path.dirname(os.path.abspath(frobkit.__file__))) != SRC:
        sys.exit(f"bench: imported frobkit from {frobkit.__file__}, not {SRC}")
    return frobkit.cli


def _call(cli, argv: list[str]):
    """(exit code or None on an escaped exception, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.run(argv)
        except Exception:
            rc = None
            traceback.print_exc()
        dt = time.perf_counter() - t0
    return rc, out.getvalue(), err.getvalue(), dt


def setup(workload: str, tracer=None):
    """Import frobkit and run the workload's warm-up jobs; (cli, seconds)."""
    t0 = time.perf_counter()
    cli = _import_cli()
    if tracer is not None:
        tracer.install()
        tracer.active = True
    for job in WORKLOADS[workload]["warmup"]():
        rc, _, err, _ = _call(cli, job.argv)
        if rc != job.exit_code:
            sys.exit(f"bench: warm-up job {job.argv} exited {rc}: {err.strip()}")
    return cli, time.perf_counter() - t0


def _setup_in_fresh_interpreter(workload: str) -> float:
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--setup-sample"],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.exit(f"bench: set-up sample failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = WORKLOADS[name]
    rng = random.Random(f"{name}/{seed}")
    tracer = None
    if trace:
        from tracing import Tracer
        tracer = Tracer()
    cli, setup_s = setup(name, tracer)

    attempted = failed = rounds = 0
    job_times: list[float] = []   # jobs that did not fail
    round_rates: list[float] = []  # per round: jobs that did not fail / busy
    labels: list[int] = []
    correct = True
    t_start = time.perf_counter()
    while True:
        done, busy = 0, 0.0  # busy: wall time of every job of the round
        for job in spec["round"](rng):
            rc, out, err, dt = _call(cli, job.argv)
            attempted += 1
            busy += dt
            if rc != job.exit_code:
                failed += 1
                print(f"bench: {job.kind} failed (exit {rc}, want "
                      f"{job.exit_code}): {err.strip()[-300:]}", file=sys.stderr)
                continue
            done += 1
            job_times.append(dt)
            if job.check is None:
                continue
            if tracer is not None:
                tracer.active = False
            try:
                labels += job.check(json.loads(out))
            except (CheckError, ValueError, KeyError, TypeError, IndexError) as exc:
                correct = False
                print(f"bench: {job.kind} output is wrong: {exc!r}\n  argv: "
                      f"{job.argv}", file=sys.stderr)
            finally:
                if tracer is not None:
                    tracer.active = True
        round_rates.append(done / busy)
        rounds += 1
        elapsed = time.perf_counter() - t_start
        if trace:
            if rounds >= spec["trace_rounds"]:
                break
        elif elapsed * (rounds + 1) / rounds > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.active = False
    if not job_times:
        correct = False
    # the median round rather than the whole run, so that a stretch of
    # slower host time moves the figure only if it covers most rounds
    jobs_per_s = statistics.median(round_rates)
    print(f"bench: {name} seed {seed}: {rounds} round(s), {attempted} job(s), "
          f"{failed} failed, {jobs_per_s:.4f} jobs/s"
          f"{' traced' if trace else ''}, correct = {correct}")

    if trace:
        metrics = tracer.metrics()
    else:
        samples = [setup_s] + [_setup_in_fresh_interpreter(name)
                               for _ in range(SETUP_SAMPLES - 1)]
        metrics = {
            "setup_s": (statistics.median(samples), "s"),
            "jobs_per_s": (jobs_per_s, "jobs/s"),
            "job_s_p50": (statistics.median(job_times) if job_times else 0.0, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "digits_delivered": (statistics.fmean(labels) if labels else 0.0,
                                 "digits"),
        }
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def run_all(seed: int, seconds: float) -> int:
    """Every workload in its own interpreter, printed as one table."""
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited {proc.returncode} without a result")
            status = 1
            continue
        res = json.loads(lines[-1])
        print(f"{name}: attempted {res['attempted']}, failed {res['failed']}, "
              f"correct {res['correct']}")
        for metric, mv in res["metrics"].items():
            print(f"  {metric:<18} {mv['value']:>14.6g} {mv['unit']}")
        status |= not res["correct"]
    return status


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-sample", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    # the jobs' default precision must not depend on the caller's environment
    os.environ.pop("FROBKIT_PRECISION", None)
    if args.workload is None:
        return run_all(args.seed, args.seconds)
    if args.setup_sample:
        print(setup(args.workload)[1])
        return 0
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
