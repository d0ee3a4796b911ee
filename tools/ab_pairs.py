#!/usr/bin/env python3
"""Alternating benchmark pairs of two trees, summarised per end-to-end metric.

    python3 tools/ab_pairs.py BASE_TREE CHANGE_TREE --workload witt-ghost \\
        [--seed 1] [--pairs 10] [--seconds 28] [--json runs.json]
    python3 tools/ab_pairs.py BASE_TREE CHANGE_TREE --workload witt-ghost \\
        --setup-samples 20 [--json samples.json]

Each pair runs `bench/run.py --workload W --seed S --seconds T --trace 0`
once in BASE_TREE and once in CHANGE_TREE, each in its own checkout; the
base runs first in odd pairs and second in even ones, so that neither
side always follows the other.  For every end-to-end metric of
BENCHMARK.json it prints both sides' median and quartiles
(statistics.quantiles, n=4, as bench/repeat.py), the number of pairs the
change won (strictly better in the metric's direction; a tie is no win),
and whether the two medians lie further apart than the base's
interquartile range: a speed claim holds when the change wins at least 9
of 10 pairs and the medians are that far apart.

Each side imports its bytecode from its own fresh PYTHONPYCACHEPREFIX
(a temporary directory, removed at the end) with bytecode writing on, so
a stale or missing __pycache__ in either tree cannot bias setup_s.  The
child processes that bench/run.py starts for its set-up samples inherit
it.  A run that exits non-zero or reports correct = false stops the tool
with status 1.

With --setup-samples K the tool times set-up alone, which a full run
samples only five times: K alternating `bench/run.py --workload W
--setup-sample` calls per side (each imports frobkit and runs the
workload's warm-up jobs in a fresh interpreter), in two modes.  In
"fresh-cache" mode each side has its own fresh PYTHONPYCACHEPREFIX with
bytecode writing on, as above, so the first sample compiles and the rest
read that cache.  In "no-cache" mode PYTHONDONTWRITEBYTECODE=1 is set and
the prefix is an empty directory that is never written, so every sample
compiles every module it imports.  For each mode it prints both sides'
median and quartiles of setup_s and the number of samples the change won
(strictly lower).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _end_to_end() -> list[dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)["end_to_end"]


def _bench(tree: str, env: dict, argv: list[str]) -> tuple[str, str]:
    """The last stdout line and the stderr of one bench/run.py call in tree."""
    cmd = [sys.executable, os.path.join(tree, "bench", "run.py"), *argv]
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"ab_pairs: {tree}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return lines[-1], proc.stderr


def _run(tree: str, env: dict, workload: str, seed: int, seconds: float) -> dict:
    out, err = _bench(tree, env, ["--workload", workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", "0"])
    res = json.loads(out)
    if not res["correct"]:
        sys.exit(f"ab_pairs: {tree}: output checks failed\n{err[-2000:]}")
    return res


def _env(prefix: str, write_bytecode: bool = True) -> dict:
    """The environment of one side: its own bytecode cache under prefix."""
    env = dict(os.environ, PYTHONPYCACHEPREFIX=prefix)
    if write_bytecode:
        env.pop("PYTHONDONTWRITEBYTECODE", None)
    else:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def setup_samples(trees: list[str], workload: str, k: int, tmp: str) -> dict:
    """K alternating set-up samples per side in each mode, printed as
    medians, quartiles and wins; {mode: [base samples, change samples]}."""
    out = {}
    for mode in ("fresh-cache", "no-cache"):
        envs = [_env(os.path.join(tmp, mode, side), mode == "fresh-cache")
                for side in ("base", "change")]
        samples: list[list[float]] = [[], []]
        for i in range(k):
            for side in ((0, 1) if i % 2 == 0 else (1, 0)):
                line, _ = _bench(trees[side], envs[side],
                                 ["--workload", workload, "--setup-sample"])
                samples[side].append(float(line))
        qa, qb = _quartiles(samples[0]), _quartiles(samples[1])
        wins = sum(y < x for x, y in zip(*samples))
        print(f"  {mode:<11} setup_s base {qa[1]:.4g} [{qa[0]:.4g}, {qa[2]:.4g}]  "
              f"change {qb[1]:.4g} [{qb[0]:.4g}, {qb[2]:.4g}]  "
              f"won {wins}/{k}  change median <= base upper quartile: "
              f"{'yes' if qb[1] <= qa[2] else 'no'}", flush=True)
        out[mode] = samples
    return out


def _quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def summarise(base: list[dict], change: list[dict], metrics: list[dict]) -> list[str]:
    """One line per metric: medians, quartiles, wins and the spread test."""
    out = []
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        a = [r["metrics"][name]["value"] for r in base]
        b = [r["metrics"][name]["value"] for r in change]
        wins = sum((y > x) if higher else (y < x) for x, y in zip(a, b))
        qa, qb = _quartiles(a), _quartiles(b)
        apart = abs(qb[1] - qa[1]) > qa[2] - qa[0]
        ratio = qb[1] / qa[1] if qa[1] else float("nan")
        out.append(f"  {name:<17} base {qa[1]:.4g} [{qa[0]:.4g}, {qa[2]:.4g}]  "
                   f"change {qb[1]:.4g} [{qb[0]:.4g}, {qb[2]:.4g}]  "
                   f"ratio {ratio:.3f}  won {wins}/{len(a)}  "
                   f"medians apart: {'yes' if apart else 'no'}")
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", help="checkout of the parent")
    ap.add_argument("change", help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--setup-samples", type=int, metavar="K",
                    help="time K set-ups per side and mode instead of full runs")
    ap.add_argument("--json", help="write every run of both sides to this file")
    args = ap.parse_args()
    trees = [os.path.abspath(args.base), os.path.abspath(args.change)]
    if args.setup_samples:
        print(f"{args.workload} set-up, {args.setup_samples} sample(s) per side "
              f"and mode, base {trees[0]}, change {trees[1]}:", flush=True)
        with tempfile.TemporaryDirectory() as tmp:
            samples = setup_samples(trees, args.workload, args.setup_samples, tmp)
        if args.json:
            with open(args.json, "w", encoding="utf-8") as fh:
                json.dump({"workload": args.workload, "setup_s": samples}, fh,
                          indent=1)
        return 0
    runs: list[list[dict]] = [[], []]
    with tempfile.TemporaryDirectory() as tmp:
        envs = [_env(os.path.join(tmp, side)) for side in ("base", "change")]
        for i in range(args.pairs):
            for side in ((0, 1) if i % 2 == 0 else (1, 0)):
                runs[side].append(_run(trees[side], envs[side], args.workload,
                                       args.seed, args.seconds))
            jps = [r[-1]["metrics"]["jobs_per_s"]["value"] for r in runs]
            print(f"pair {i + 1}: jobs_per_s {jps[0]:.4g} -> {jps[1]:.4g}",
                  flush=True)
    print(f"{args.workload} seed {args.seed}, {args.pairs} pair(s), "
          f"base {trees[0]}, change {trees[1]}:")
    for line in summarise(runs[0], runs[1], _end_to_end()):
        print(line)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "base": runs[0], "change": runs[1]}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
