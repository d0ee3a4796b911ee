#!/usr/bin/env python3
"""Label-by-label comparison of the harness reports of two trees.

    python3 tools/label_diff.py OLD_TREE NEW_TREE

Runs the job streams of tools/harness_digest.py (the first 4 rounds of
every workload at seeds 1-8) once with frobkit imported from OLD_TREE and
once from NEW_TREE, each in its own interpreter, and compares the two
runs job by job.  A job whose stdout is the same in both counts as
unchanged.  For a job whose stdout differs, both reports are parsed as
JSON and walked together:

* a coefficient, a dict with the keys digits, prec and shift (the value
  pi^shift * sum_i digits[i] * pi^i, known modulo pi^(shift + prec)), may
  change its label shift + prec, and its new value must be congruent to
  the old one modulo pi^(old label): the base-pi digits below that label
  (or below the new one, where the label fell) must agree;
* everything else must be equal: keys, list lengths, caps, gauges and
  every other number or string, and also the exit status and stderr.

It prints, per workload and job kind, the number of jobs, of changed
reports, of coefficient labels that went up, stayed and went down in the
changed reports, of incongruent values and of other changes.  It exits 1
when any label went down, any value is incongruent or anything else
changed, and 0 otherwise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from collections import Counter, defaultdict

TOOLS = os.path.dirname(os.path.abspath(__file__))
COUNTS = ("jobs", "changed", "labels_up", "labels_same", "labels_down",
          "incongruent", "other")


def _dump(tree: str, path: str) -> None:
    """One JSON line per harness job of tree: workload, seed, kind, status,
    stdout and stderr."""
    sys.path.insert(0, TOOLS)
    from harness_digest import reports

    with open(path, "w", encoding="utf-8") as fh:
        for name, seed, kind, status, out, err in reports(os.path.abspath(tree)):
            fh.write(json.dumps([name, seed, kind, str(status), out, err]) + "\n")


def _is_coeff(x) -> bool:
    return isinstance(x, dict) and set(x) == {"digits", "prec", "shift"}


def _digit_map(c: dict) -> dict[int, int]:
    return {c["shift"] + i: d for i, d in enumerate(c["digits"]) if d}


def _walk(old, new, tally: Counter) -> None:
    """Compare two parsed reports, adding to tally."""
    if _is_coeff(old) and _is_coeff(new):
        lo = old["shift"] + old["prec"]
        hi = new["shift"] + new["prec"]
        tally["labels_up" if hi > lo else
              "labels_down" if hi < lo else "labels_same"] += 1
        a, b = _digit_map(old), _digit_map(new)
        if any(a.get(q, 0) != b.get(q, 0) for q in set(a) | set(b) if q < min(lo, hi)):
            tally["incongruent"] += 1
    elif isinstance(old, dict) and isinstance(new, dict):
        if set(old) != set(new):
            tally["other"] += 1
            return
        for key in old:
            _walk(old[key], new[key], tally)
    elif isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            tally["other"] += 1
            return
        for x, y in zip(old, new):
            _walk(x, y, tally)
    elif old != new or type(old) is not type(new):
        tally["other"] += 1


def compare(old_path: str, new_path: str) -> dict[tuple[str, str], Counter]:
    """Per (workload, kind), the counts of COUNTS over the two dumps."""
    table: dict[tuple[str, str], Counter] = defaultdict(Counter)
    with open(old_path, encoding="utf-8") as fo, open(new_path, encoding="utf-8") as fn:
        for line_old, line_new in zip(fo, fn, strict=True):
            name, seed, kind, status, out, err = json.loads(line_old)
            tally = table[name, kind]
            tally["jobs"] += 1
            name2, seed2, kind2, status2, out2, err2 = json.loads(line_new)
            if (name, seed, kind, status, err) != (name2, seed2, kind2, status2, err2):
                tally["other"] += 1
            if out == out2:
                continue
            tally["changed"] += 1
            try:
                old, new = json.loads(out), json.loads(out2)
            except json.JSONDecodeError:
                tally["other"] += 1
                continue
            _walk(old, new, tally)
    return table


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--dump":
        _dump(argv[1], argv[2])
        return 0
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for side, tree in zip(("old", "new"), argv):
            path = os.path.join(tmp, f"{side}.jsonl")
            subprocess.run([sys.executable, os.path.abspath(__file__), "--dump",
                            tree, path], check=True)
            paths.append(path)
        table = compare(*paths)
    total = Counter()
    print("workload kind " + " ".join(COUNTS))
    for (name, kind), tally in sorted(table.items()):
        total.update(tally)
        print(f"{name} {kind} " + " ".join(str(tally[c]) for c in COUNTS))
    print("total - " + " ".join(str(total[c]) for c in COUNTS))
    bad = total["labels_down"] + total["incongruent"] + total["other"]
    print("label_diff: " + ("FAIL" if bad else "ok: no label down, every value "
                            "congruent, nothing else changed"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
