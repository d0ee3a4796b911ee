#!/usr/bin/env python3
"""Growth in M of the intertwiner, in one or more trees.

    python3 tools/intertwine_growth.py TREE [TREE ...] [--runs K]

Times the job `frobkit intertwine --preset-f cyclotomic --preset-f2
lubin-tate --p 3 --N 20` at M = 60, 120 and 240.  Each tree runs in its
own fresh interpreter, with frobkit imported from its src/.  For every M
it prints the best of K runs (default 5) of three timings: the solve
(solve_intertwiner with mu0 = 1, as the command calls it), the verify
(verify_intertwine on that solution), and the total (the whole command
through frobkit.cli.run, its stdout report included), in seconds, and
the ratio of each timing to the one at the previous M.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import time

SIZES = (60, 120, 240)
N = 20


def _best(fn, runs: int) -> float:
    best = float("inf")
    for _ in range(runs):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _measure(tree: str, runs: int) -> dict[int, dict[str, float]]:
    """{M: {"solve", "verify", "total"}} in seconds, frobkit from tree."""
    sys.path.insert(0, os.path.join(tree, "src"))
    from frobkit.cli import run
    from frobkit.intertwine import solve_intertwiner, verify_intertwine
    from frobkit.scalars import qp_spec
    from frobkit.series import frob_preset

    spec = qp_spec(3)
    f, f2 = frob_preset(spec, "cyclotomic"), frob_preset(spec, "lubin-tate")
    out = {}
    for M in SIZES:
        res = solve_intertwiner(f, f2, 1, M, N)
        argv = ["intertwine", "--preset-f", "cyclotomic", "--preset-f2", "lubin-tate",
                "--p", "3", "--N", str(N), "--M", str(M)]

        def job():
            with contextlib.redirect_stdout(io.StringIO()):
                if run(argv) != 0:
                    raise SystemExit(f"{tree}: intertwine at M = {M} failed")

        out[M] = {
            "solve": _best(lambda: solve_intertwiner(f, f2, 1, M, N), runs),
            "verify": _best(lambda: verify_intertwine(f, f2, res.xi, *res.verified_to),
                            runs),
            "total": _best(job, runs),
        }
    return out


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("trees", nargs="+", metavar="TREE")
    ap.add_argument("--runs", type=int, default=5, metavar="K")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        print(json.dumps(_measure(args.trees[0], args.runs)))
        return 0
    for tree in args.trees:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--child", "--runs",
             str(args.runs), os.path.abspath(tree)],
            capture_output=True, text=True, check=True)
        table = json.loads(proc.stdout)
        print(f"{tree}  (best of {args.runs}, seconds; x = ratio to the previous M)")
        prev = None
        for M in SIZES:
            row = table[str(M)]
            cells = []
            for key in ("solve", "verify", "total"):
                cell = f"{key} {row[key]:.4f}"
                if prev is not None:
                    cell += f" (x{row[key] / prev[key]:.2f})"
                cells.append(cell)
            print(f"  M = {M:3d}: " + ", ".join(cells))
            prev = row
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
