#!/usr/bin/env python3
"""Replay of the series kernel's recorded calls, timed in one or more trees.

    python3 tools/kernel_replay.py TREE [TREE ...] --workload W \\
        [--rounds R] [--runs K]

Records every `series._sum_products` call that the first R rounds
(default 2) of workload W at seed 1 make, drawn as bench/run.py draws
them, with frobkit and bench/workloads.py imported from the first TREE.
A call is kept as plain fields: the field (p and its Eisenstein
polynomial), the length, the cap and, for each pair, both factors as
(shifts, units, labels, cap) for a series or (shift, unit, label) for a
constant.  No cached operand is kept.  A factor that is one object in
several calls is one object in the replay, and a factor that an earlier
call returned is that call's replayed result, so each tree's own
operand caches are reused as the recorded run reused the objects.

Each run replays all calls in one tree, in a fresh interpreter with
frobkit imported from that tree's src/, and times the loop of calls.
The trees alternate: the first tree goes first in odd runs and last in
even ones.  It prints the best of K runs (default 5) per tree in ms and
its ratio to the first tree (above 1: faster than the first tree), and
exits 1 if any result's fields (shifts, units, labels, cap) differ
between the trees.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import pickle
import random
import subprocess
import sys
import tempfile
import time


def _record(tree: str, workload: str, rounds: int, path: str) -> None:
    """Write the calls of the first rounds of workload, run in tree."""
    sys.path[:0] = [os.path.join(tree, "src"), os.path.join(tree, "bench")]
    from workloads import WORKLOADS
    from frobkit import series
    from frobkit.cli import run
    from frobkit.scalars import FElement

    os.environ.pop("FROBKIT_PRECISION", None)
    refs: dict[int, tuple] = {}  # id of a factor or result -> its reference
    alive: list = []  # every object in refs, so that no id is reused
    objects: list[tuple] = []
    specs: dict[tuple, int] = {}
    calls: list[tuple] = []

    def ref(x) -> tuple:
        got = refs.get(id(x))
        if got is None:
            if isinstance(x, FElement):
                objects.append(("F", x.low, x.coords, x.label))
            else:
                objects.append(("S", x.shifts, x.units, x.labels, x.cap))
            got = refs[id(x)] = ("O", len(objects) - 1)
            alive.append(x)
        return got

    kernel = series._sum_products

    def recording(spec, pairs, length, cap):
        pairs = list(pairs)
        key = specs.setdefault((spec.p, spec.eisenstein), len(specs))
        calls.append((key, [(ref(x), ref(y)) for x, y in pairs], length, cap))
        out = kernel(spec, pairs, length, cap)
        refs[id(out)] = ("R", len(calls) - 1)
        alive.append(out)
        return out

    series._sum_products = recording
    rng = random.Random(f"{workload}/1")
    for _ in range(rounds):
        for job in WORKLOADS[workload]["round"](rng):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                run(job.argv)
    series._sum_products = kernel
    with open(path, "wb") as fh:
        pickle.dump({"specs": list(specs), "objects": objects, "calls": calls}, fh)


def _replay(tree: str, path: str) -> dict:
    """{"seconds": time of the call loop, "digests": one per call}."""
    sys.path.insert(0, os.path.join(tree, "src"))
    from frobkit import series
    from frobkit.scalars import FElement, field_spec

    with open(path, "rb") as fh:
        rec = pickle.load(fh)
    specs = [field_spec(p, tuple(g)) for p, g in rec["specs"]]
    calls = rec["calls"]
    # the spec of an object is that of the first call that reads it
    spec_of: dict[int, int] = {}
    for key, pairs, _, _ in calls:
        for pair in pairs:
            for kind, i in pair:
                if kind == "O":
                    spec_of.setdefault(i, key)
    objects = []
    for i, obj in enumerate(rec["objects"]):
        spec = specs[spec_of[i]]
        if obj[0] == "F":
            objects.append(FElement(spec, *obj[1:]))
        else:
            objects.append(series.USeries(spec, *obj[1:]))
    kernel = series._sum_products
    results: list = []
    args = [(specs[key], pairs, length, cap) for key, pairs, length, cap in calls]
    t0 = time.perf_counter()
    for spec, pairs, length, cap in args:
        pairs = [(objects[i] if kind == "O" else results[i],
                  objects[j] if kind2 == "O" else results[j])
                 for (kind, i), (kind2, j) in pairs]
        results.append(kernel(spec, pairs, length, cap))
    seconds = time.perf_counter() - t0
    digests = [hashlib.sha256(repr((r.shifts, r.units, r.labels, r.cap)).encode())
               .hexdigest()[:16] for r in results]
    return {"seconds": seconds, "digests": digests}


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("trees", nargs="+", metavar="TREE")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--rounds", type=int, default=2, metavar="R")
    ap.add_argument("--runs", type=int, default=5, metavar="K")
    ap.add_argument("--child", choices=("record", "replay"), help=argparse.SUPPRESS)
    ap.add_argument("--file", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child == "record":
        _record(args.trees[0], args.workload, args.rounds, args.file)
        return 0
    if args.child == "replay":
        print(json.dumps(_replay(args.trees[0], args.file)))
        return 0
    trees = [os.path.abspath(t) for t in args.trees]
    me = os.path.abspath(__file__)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "calls.pickle")
        subprocess.run([sys.executable, me, trees[0], "--workload", args.workload,
                        "--rounds", str(args.rounds), "--child", "record",
                        "--file", path], check=True)
        best = [float("inf")] * len(trees)
        digests: list = [None] * len(trees)
        for k in range(args.runs):
            order = range(len(trees)) if k % 2 == 0 else reversed(range(len(trees)))
            for t in order:
                proc = subprocess.run(
                    [sys.executable, me, trees[t], "--workload", args.workload,
                     "--child", "replay", "--file", path],
                    capture_output=True, text=True, check=True)
                got = json.loads(proc.stdout)
                best[t] = min(best[t], got["seconds"])
                digests[t] = got["digests"]
    print(f"{args.workload}, {args.rounds} round(s) at seed 1, "
          f"{len(digests[0])} kernel call(s), best of {args.runs}:")
    for t, tree in enumerate(trees):
        print(f"  {tree}: {1000 * best[t]:.2f} ms, "
              f"ratio {best[0] / best[t]:.3f}")
    for t in range(1, len(trees)):
        bad = [i for i, (a, b) in enumerate(zip(digests[0], digests[t])) if a != b]
        if bad:
            print(f"kernel_replay: {trees[t]}: results differ from {trees[0]} "
                  f"at {len(bad)} call(s), first at call {bad[0]}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
