#!/usr/bin/env python3
"""Repeat the benchmark and print each metric's median, quartiles and spread.

    python3 bench/repeat.py --runs 10 [--workload NAME ...] [--first-seed 1]
                            [--seconds S] [--trace]

Each run is a fresh `bench/run.py` process with its own seed (first-seed,
first-seed + 1, ...).  For every workload and metric it prints the median,
the first and third quartiles (statistics.quantiles, n=4), and the spread
(q3 - q1) / median next to the metric's bound from BENCHMARK.json and the
ratio of the two: a bound is well chosen when the ratio stays below 1/3.
It also prints the share of failed jobs, which must be the same in every
run.  With --trace it repeats the traced run instead and prints the
per-layer metrics and the traced jobs/s.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def _load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _one_run(workload: str, seed: int, seconds: int, trace: bool):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n"
                         f"{proc.stderr[-2000:]}")
    m = re.search(r"([0-9.]+) jobs/s", proc.stdout)
    return json.loads(lines[-1]), float(m.group(1)) if m else None


def main() -> int:
    bench = _load_benchmark()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    status = 0
    for workload in args.workload or [w["name"] for w in bench["workloads"]]:
        results, rates = [], []
        for i in range(args.runs):
            res, rate = _one_run(workload, args.first_seed + i, args.seconds,
                                 args.trace)
            results.append(res)
            rates.append(rate)
            print(f"  {workload} seed {args.first_seed + i}: "
                  + ", ".join(f"{k} {v['value']:.6g}"
                              for k, v in res["metrics"].items()
                              if not args.trace), flush=True)
        shares = sorted({(r["failed"], r["attempted"]) for r in results})
        exact = len({r["failed"] / r["attempted"] for r in results}) == 1
        correct = all(r["correct"] for r in results)
        print(f"{workload}: {args.runs} runs, correct {correct}, failed/attempted "
              f"{'identical' if exact else 'DIFFERS'} {shares}")
        status |= not (correct and exact)
        names = list(results[0]["metrics"])
        if args.trace:
            names.append("traced jobs/s")
        for name in names:
            if name == "traced jobs/s":
                vals, unit = rates, "jobs/s"
            else:
                vals = [r["metrics"][name]["value"] for r in results]
                unit = results[0]["metrics"][name]["unit"]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med,) * 3
            spread = (q3 - q1) / med if med else 0.0
            line = (f"  {name:<28} median {med:<12.6g} q1 {q1:<12.6g} "
                    f"q3 {q3:<12.6g} {unit:<7} spread {spread:.4f}")
            if name in bounds:
                ratio = spread / bounds[name]
                line += f"  bound {bounds[name]}  spread/bound {ratio:.3f}"
                if name != "setup_s" and ratio >= 1 / 3:
                    line += "  (too wide)"
            print(line, flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
