"""tools/label_diff.py on hand-made report pairs: a coefficient may raise
its label with a congruent value; a lower label, an incongruent value or
any other change is counted against it."""

import importlib.util
import json
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "tools", "label_diff.py")
_spec = importlib.util.spec_from_file_location("label_diff", _PATH)
label_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(label_diff)


def coeff(digits, prec, shift=0):
    return {"digits": digits, "prec": prec, "shift": shift}


def report(c, gauges=(1, 2)):
    return json.dumps({"report": {"Y": [{"coeffs": [c], "cap": 9}],
                                  "gauges": list(gauges)}})


def tally(tmp_path, old, new, status=0):
    paths = []
    for side, out in (("old", old), ("new", new)):
        path = tmp_path / f"{side}.jsonl"
        path.write_text(json.dumps(["xi-rank2", 1, "xi", str(status), out, ""]) + "\n")
        paths.append(str(path))
    return label_diff.compare(*paths)["xi-rank2", "xi"]


@pytest.mark.parametrize("old, new, counts", [
    # 1 + 2*3 known modulo 3^2, then 1 + 2*3 + 1*3^3 known modulo 3^5
    (coeff([1, 2], 2), coeff([1, 2, 0, 1], 5), {"labels_up": 1}),
    # a zero at label 2 revealed as 3^3 at label 6
    (coeff([], 2), coeff([1], 3, 3), {"labels_up": 1}),
    # a negative shift: 3^-2 * (2 + 3) at label 0, then with more digits
    (coeff([2, 1], 2, -2), coeff([2, 1, 2], 4, -2), {"labels_up": 1}),
    (coeff([1, 2, 1], 3), coeff([1, 2], 2), {"labels_down": 1}),
    (coeff([1, 2], 2), coeff([1, 1, 1], 4), {"labels_up": 1, "incongruent": 1}),
    (coeff([], 2), coeff([1], 3, 1), {"labels_up": 1, "incongruent": 1}),
])
def test_coefficients_compare_by_label_and_congruence(tmp_path, old, new, counts):
    got = tally(tmp_path, report(old), report(new))
    assert got["changed"] == 1
    for key in ("labels_up", "labels_down", "incongruent", "other"):
        assert got[key] == counts.get(key, 0)


def test_any_other_change_counts(tmp_path):
    c = coeff([1], 4)
    assert tally(tmp_path, report(c), report(c))["changed"] == 0
    assert tally(tmp_path, report(c), report(c, gauges=(1, 3)))["other"] == 1
    assert tally(tmp_path, report(c), "not json")["other"] == 1
