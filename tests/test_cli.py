"""Front-end checks: worked examples, exit-code contract, determinism,
config round-trips, and schema-path error messages.

Most tests drive run() in process; one subprocess test pins down the
stdout/stderr split of the installed entry point.
"""

import json
import pathlib
import subprocess
import sys

import pytest

from frobkit.cli import run
from frobkit.series import PRESET_NAMES, EisensteinE, FrobLift, eisenstein_preset, frob_preset
from frobkit.scalars import qp_spec


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv("FROBKIT_PRECISION", raising=False)


def invoke(capsys, *argv):
    rc = run(list(argv))
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


def body(out):
    return json.loads(out)["report"]


# --- worked examples ---------------------------------------------------------


def test_tower_cyclotomic_example(capsys):
    rc, out, err = invoke(capsys, "tower", "--preset", "cyclotomic", "--p", "3")
    assert rc == 0
    rep = body(out)
    assert rep["c"] == "2/3"
    assert rep["imin"] == 1
    assert rep["single_segment"] is True
    assert [lv["i_n"] for lv in rep["levels"]] == [
        str(3**n - 1) for n in range(1, 7)]
    assert "c = 2/3" in err


def test_hypothesis_twisted_example(capsys):
    rc, out, _ = invoke(capsys, "kisin", "hypothesis", "--preset", "twisted",
                        "--p", "3", "--N", "4")
    assert rc == 0
    assert body(out) == {"found": True, "n": 1, "k": 2}


def test_hypothesis_no_witness(capsys):
    rc, out, err = invoke(capsys, "kisin", "hypothesis", "--preset",
                          "classical", "--p", "3", "--N", "6")
    assert rc == 0
    assert body(out) == {"found": False}
    assert "no witness" in err


def test_presets_lists_all_and_round_trips(capsys):
    rc, out, _ = invoke(capsys, "presets", "--p", "3")
    assert rc == 0
    entries = body(out)["presets"]
    assert [e["name"] for e in entries] == list(PRESET_NAMES)
    spec = qp_spec(3)
    for e in entries:
        f = FrobLift.make(spec, [_parse(spec, c) for c in e["f"]])
        E = EisensteinE.make(spec, [_parse(spec, c) for c in e["E"]])
        assert f == frob_preset(spec, e["name"])
        assert E == eisenstein_preset(spec, e["name"])
        assert E.e0 == e["e0"]


def _parse(spec, v):
    from fractions import Fraction
    from frobkit.scalars import OFExact
    if isinstance(v, list):
        return OFExact.make(spec, [Fraction(c) for c in v])
    return OFExact.make(spec, [Fraction(v)])


# --- report contract ---------------------------------------------------------


def test_reports_deterministic_byte_for_byte(capsys):
    outs = []
    for _ in range(2):
        rc, out, _ = invoke(capsys, "witt-selftest", "--p", "3",
                            "--witt-len", "2", "--trials", "10")
        assert rc == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_out_flag_writes_file_and_keeps_stdout_empty(capsys, tmp_path):
    target = tmp_path / "report.json"
    rc, out, err = invoke(capsys, "tower", "--preset", "cyclotomic",
                          "--p", "3", "--out", str(target))
    assert rc == 0
    assert out == ""
    assert "tower:" in err
    obj = json.loads(target.read_text())
    assert obj["report"]["c"] == "2/3"


def test_emitted_config_reruns_identically(capsys, tmp_path):
    target = tmp_path / "job.json"
    rc, out, _ = invoke(capsys, "intertwine", "--preset-f", "cyclotomic",
                        "--preset-f2", "lubin-tate", "--p", "3",
                        "--M", "12", "--N", "8")
    assert rc == 0
    target.write_text(out)
    rc2, out2, _ = invoke(capsys, "intertwine", "--config", str(target))
    assert rc2 == 0
    assert out2 == out


def test_flags_override_config_file(capsys, tmp_path):
    rc, out, _ = invoke(capsys, "tower", "--preset", "cyclotomic", "--p", "3")
    assert rc == 0
    cfg = tmp_path / "tower.json"
    cfg.write_text(out)
    rc2, out2, _ = invoke(capsys, "tower", "--config", str(cfg),
                          "--levels", "3")
    assert rc2 == 0
    assert len(body(out2)["levels"]) == 3


def test_env_var_overrides_default_precision(capsys, monkeypatch):
    monkeypatch.setenv("FROBKIT_PRECISION", "20")
    rc, out, _ = invoke(capsys, "kisin", "minheight", "--preset", "cyclotomic",
                        "--p", "3", "--series", "[3,3,1]")
    assert rc == 0
    assert json.loads(out)["config"]["precision"]["piadic"] == 20
    monkeypatch.setenv("FROBKIT_PRECISION", "soup")
    rc, _, err = invoke(capsys, "kisin", "minheight", "--preset", "cyclotomic",
                        "--p", "3", "--series", "[3,3,1]")
    assert rc == 1
    assert "config.precision.piadic" in err


# --- module surfaces ---------------------------------------------------------


def test_intertwine_reports_verified_solution(capsys):
    rc, out, _ = invoke(capsys, "intertwine", "--preset-f", "cyclotomic",
                        "--preset-f2", "lubin-tate", "--p", "3",
                        "--M", "15", "--N", "8")
    assert rc == 0
    sol = body(out)["solutions"][0]
    assert sol["s"] == 1
    assert sol["integral"] is True
    assert sol["verified"] is True
    assert sol["verified_to"] == {"M": 15, "N": 8}


def test_intertwine_all_mu0_candidates(capsys):
    rc, out, _ = invoke(capsys, "intertwine", "--preset-f", "classical",
                        "--preset-f2", "classical", "--p", "3",
                        "--all-mu0", "--M", "6", "--N", "8")
    assert rc == 0
    sols = body(out)["solutions"]
    assert len(sols) == 2
    assert all(s["verified"] for s in sols)


def test_witt_selftest_shape(capsys):
    rc, out, _ = invoke(capsys, "witt-selftest", "--p", "3", "--witt-len", "2",
                        "--trials", "5")
    assert rc == 0
    rep = body(out)
    assert rep["ok"] is True
    assert len(rep["checks"]) == 4  # two bases x lengths 1..2
    assert {c["field"]["g"][0] for c in rep["checks"]} == {-3}
    assert all(c["ghost_exact"] == 5 for c in rep["checks"])


def test_fixedpoint_report(capsys):
    rc, out, _ = invoke(capsys, "fixedpoint", "--preset", "lubin-tate",
                        "--p", "3")
    assert rc == 0
    rep = body(out)
    assert rep["iterations"] <= 6
    assert rep["frob_matches_f"] is True
    assert rep["reduces_to_ubar"] is True
    assert rep["e_reduction"]["ok"] is True


def test_kisin_height_results_are_not_errors(capsys):
    mat = '[[[3,3,1],0],[0,1]]'
    rc, out, _ = invoke(capsys, "kisin", "height", "--preset", "cyclotomic",
                        "--p", "3", "--r", "1", "--matrix", mat)
    assert rc == 0 and body(out)["verified"] is True
    rc, out, _ = invoke(capsys, "kisin", "height", "--preset", "cyclotomic",
                        "--p", "3", "--r", "0", "--matrix", mat)
    assert rc == 0 and body(out)["verified"] is False


def test_kisin_counterexample_report(capsys):
    rc, out, _ = invoke(capsys, "kisin", "counterexample", "--preset",
                        "twisted", "--p", "3", "--n", "1")
    assert rc == 0
    rep = body(out)
    assert rep["l"] == 2
    assert rep["identity_checked"] is True
    assert rep["module_height_ok"] is True
    assert rep["ambient_height_ok"] is True


def test_kisin_xi_report(capsys):
    rc, out, _ = invoke(capsys, "kisin", "xi", "--p", "3", "--f", "[9,0,1]",
                        "--E", "[-3,1]", "--r", "1", "--max-n", "3",
                        "--M", "30", "--N", "16", "--matrix", "[[[-3,1]]]")
    assert rc == 0
    rep = body(out)
    assert rep["gauges"] == [0, 2, 4]
    assert rep["den"]["shift"] == 3


def test_kisin_fil1_report(capsys):
    rc, out, _ = invoke(capsys, "kisin", "fil1", "--preset", "cyclotomic",
                        "--p", "3", "--matrix", '[[[3,3,1],0],[0,1]]')
    assert rc == 0
    assert body(out) == {"d": 2, "fil1_rank": 1}


# --- exit codes --------------------------------------------------------------


def test_malformed_matrix_names_schema_path(capsys):
    rc, out, err = invoke(capsys, "kisin", "height", "--preset", "cyclotomic",
                          "--p", "3", "--r", "1",
                          "--matrix", '[[1,"x"],[0,1]]')
    assert rc == 1
    assert out == ""
    assert "config.matrix[0][1]" in err


def test_missing_required_parameter(capsys):
    rc, _, err = invoke(capsys, "kisin", "height", "--preset", "cyclotomic",
                        "--p", "3", "--matrix", "[[1]]")
    assert rc == 1 and "config.r" in err


def test_bad_subcommands_exit_1(capsys):
    assert invoke(capsys, )[0] == 1
    assert invoke(capsys, "kisin")[0] == 1
    assert invoke(capsys, "tower", "--preset", "nope")[0] == 1


def test_unreadable_config_exits_1(capsys, tmp_path):
    missing = tmp_path / "nope.json"
    rc, _, err = invoke(capsys, "tower", "--config", str(missing))
    assert rc == 1 and "config" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc, _, err = invoke(capsys, "tower", "--config", str(bad))
    assert rc == 1 and "invalid JSON" in err


def test_non_integer_field_coefficient_exits_1(capsys, tmp_path):
    # g must have integer coefficients: "-7/2" is rejected, not cut to -3
    rc, out, err = invoke(capsys, "presets", "--p", "3",
                          "--base-g", '["-7/2", 1]')
    assert rc == 1 and out == "" and "config.field.g[0]" in err
    cfg = tmp_path / "field.json"
    cfg.write_text(json.dumps({"field": {"p": 3, "g": [-3, "1/2", 1]}}))
    rc, out, err = invoke(capsys, "presets", "--config", str(cfg))
    assert rc == 1 and out == "" and "config.field.g[1]" in err
    # an integer written as a fraction still names the field it means
    rc, out, _ = invoke(capsys, "presets", "--p", "3", "--base-g", '["-6/2", 1]')
    assert rc == 0 and json.loads(out)["config"]["field"]["g"] == [-3, 1]


def test_budget_exhaustion_exits_2(capsys):
    rc, out, err = invoke(capsys, "witt-selftest", "--p", "3",
                          "--witt-len", "5", "--trials", "1")
    assert rc == 2
    assert out == ""
    assert "indeterminate" in err


def test_domain_errors_exit_1(capsys):
    # non-witness levels are real errors about the inputs, not indeterminacy
    rc, _, err = invoke(capsys, "kisin", "counterexample", "--preset",
                        "twisted", "--p", "3", "--n", "0")
    assert rc == 1 and "divide" in err
    rc, _, err = invoke(capsys, "kisin", "counterexample", "--preset",
                        "cyclotomic", "--p", "3", "--n", "1")
    assert rc == 1 and "witness" in err
    # s = 1 with a_1 != a_1': no intertwiner, with or without --all-mu0
    for extra in ((), ("--all-mu0",)):
        rc, out, err = invoke(capsys, "intertwine", "--preset-f", "cyclotomic",
                              "--f2", "[6,0,1]", "--p", "3", "--M", "12",
                              "--N", "6", *extra)
        assert rc == 1 and out == "" and "linear terms" in err


# --- installed entry point ---------------------------------------------------


def test_subprocess_streams_and_trailing_newline():
    proc = subprocess.run(
        [sys.executable, "-m", "frobkit.cli", "tower", "--preset",
         "cyclotomic", "--p", "3"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout.endswith("\n")
    assert json.loads(proc.stdout)["report"]["c"] == "2/3"
    assert "tower:" in proc.stderr


def test_one_process_matches_separate_runs(capsys):
    # the parser is built once per process: a usage error must leave it
    # as it was for the jobs after it
    jobs = [["tower", "--preset", "cyclotomic", "--p", "3", "--levels", "x"],
            ["tower", "--preset", "cyclotomic", "--p", "3"],
            ["tower", "--preset", "cyclotomic", "--p", "3", "--levels", "x"]]
    in_process = [invoke(capsys, *argv) for argv in jobs]
    for argv, got in zip(jobs, in_process):
        proc = subprocess.run([sys.executable, "-m", "frobkit.cli", *argv],
                              capture_output=True, text=True, timeout=60)
        assert got == (proc.returncode, proc.stdout, proc.stderr)
    assert [rc for rc, _, _ in in_process] == [1, 0, 1]


def test_bench_tracer_finds_every_name_it_wraps():
    # bench/tracing.py wraps frobkit's functions, operators and to_json
    # methods by name for `bench/run.py --trace 1`; installing it raises
    # once one of those names is gone from its module or class body
    root = pathlib.Path(__file__).resolve().parents[1]
    code = ("import sys; sys.path[:0] = sys.argv[1:]; import frobkit.cli; "
            "from tracing import Tracer; Tracer().install()")
    proc = subprocess.run(
        [sys.executable, "-c", code, str(root / "src"), str(root / "bench")],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_bench_tracer_counts_witt_polynomial_construction():
    # the traced witt.polys_built and witt.polys_s see construction only
    # through the witt_polys wrapper, so a build that bypasses witt_polys
    # would read 0 in both instead of failing
    root = pathlib.Path(__file__).resolve().parents[1]
    code = ("import sys, io, json, contextlib; sys.path[:0] = sys.argv[1:]; "
            "import frobkit.cli; from tracing import Tracer; t = Tracer(); "
            "t.install(); t.active = True\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    rc = frobkit.cli.run(['witt-selftest', '--witt-len', '2'])\n"
            "t.active = False; m = t.metrics()\n"
            "print(json.dumps([rc, m['witt.polys_built'][0], m['witt.polys_s'][0]]))")
    proc = subprocess.run(
        [sys.executable, "-c", code, str(root / "src"), str(root / "bench")],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    rc, built, secs = json.loads(proc.stdout)
    assert rc == 0
    assert built >= 1
    assert secs > 0


def test_bench_tracer_keeps_the_witness_scan_out_of_hypothesis_check():
    # counterexample_module decides its identity through kisin's private
    # scan, not the traced public hypothesis_check, so a counterexample job
    # charges its time to kisin.counterexample_s alone
    root = pathlib.Path(__file__).resolve().parents[1]
    code = ("import sys, io, json, contextlib; sys.path[:0] = sys.argv[1:]; "
            "import frobkit.cli; from tracing import Tracer; t = Tracer(); "
            "t.install(); t.active = True\n"
            "with contextlib.redirect_stdout(io.StringIO()), "
            "contextlib.redirect_stderr(io.StringIO()):\n"
            "    rc = frobkit.cli.run(['kisin', 'counterexample', '--preset', "
            "'twisted', '--p', '3', '--n', '1'])\n"
            "t.active = False; m = t.metrics()\n"
            "print(json.dumps([rc, m['kisin.counterexample_s'][0], "
            "m['kisin.hypothesis_check_s'][0]]))")
    proc = subprocess.run(
        [sys.executable, "-c", code, str(root / "src"), str(root / "bench")],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    rc, counterexample_s, hypothesis_s = json.loads(proc.stdout)
    assert rc == 0
    assert counterexample_s > 0
    assert hypothesis_s == 0
