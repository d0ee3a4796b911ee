"""Golden CLI reports: the README's worked examples, byte for byte.

Each example's stdout is pinned by its sha256 together with its exit
status; so is the stdout of the kisin height, fil1 and minheight
invocations of tests/test_cli.py, whose verdicts run through Weierstrass
division by E, and of a kisin hypothesis scan that finds no witness.  A refactor must leave every hash as it is; a change that is meant
to alter a report updates the hash here and says why in CHANGES.md.
"""

import hashlib

import pytest

from frobkit.cli import run

GOLDEN = [
    (["tower", "--preset", "cyclotomic", "--p", "3"],
     "e67453cace15b8ec2577b6b5de4087c170034c279a7703974d4162e0f3c16e7a"),
    (["kisin", "hypothesis", "--preset", "twisted", "--p", "3", "--N", "4"],
     "2aaf09c1acc964d0bc35741a060d4a90a8c86cf9acd1be977de24170cef24d39"),
    (["kisin", "counterexample", "--preset", "twisted", "--p", "3", "--n", "1"],
     "78395e7012e2df388c7f283b95d832e45ff220e5a84a591ae0ae1f49de2ead41"),
    (["witt-selftest", "--p", "3", "--witt-len", "3", "--trials", "25",
      "--seed", "7"],
     "333606b7b6a6eac2bb1ae6e4e8e1ce71b77496b09d8e7065321e7230213c6339"),
    (["fixedpoint", "--preset", "lubin-tate", "--p", "3"],
     "3acb0cebe41f0327f256611194bc5dc71c40a145b8d1fb2201bda52f32575f7c"),
    (["kisin", "xi", "--p", "3", "--f", "[9,0,1]", "--E", "[-3,1]", "--r", "1",
      "--max-n", "3", "--M", "30", "--N", "16", "--matrix", "[[[-3,1]]]"],
     "a63a0dc3ff36454257faf2cdba04f3bf919aaa3643a8834cb1c353c02669ea9c"),
    (["presets", "--p", "3"],
     "ea5cc562a4b5aced16af467293ea17d102a663fc7ae36fb9eac2bbd847999616"),
    (["intertwine", "--preset-f", "cyclotomic", "--preset-f2", "lubin-tate",
      "--p", "3", "--M", "12", "--N", "8"],
     "ce209ed2c93e6045d788a15ac0edbc462a0b3e0b1243f080e2caa28c7616d38a"),
]


_MAT = "[[[3,3,1],0],[0,1]]"

KISIN_GOLDEN = [
    (["kisin", "height", "--preset", "cyclotomic", "--p", "3", "--r", "1",
      "--matrix", _MAT],
     "cd0465f4733ea2733be2b2e157aceecf0b861529f770d4a975cc9e662c61d3ad"),
    (["kisin", "height", "--preset", "cyclotomic", "--p", "3", "--r", "0",
      "--matrix", _MAT],
     "45c70c978350fe6fc8fbbdfb2b08f1938de7082293c9ddee09ff6a68ed332bc0"),
    (["kisin", "fil1", "--preset", "cyclotomic", "--p", "3", "--matrix", _MAT],
     "d1a1d000f11ed66ab17e2a6ca2ffb1c8c0bb3b51f2d6a0342ecc71f70c706a9f"),
    (["kisin", "minheight", "--preset", "cyclotomic", "--p", "3",
      "--series", "[3,3,1]"],
     "a01777dcd3dc6bc2e5d887b7224427873bcb0a0215c32f542b3c7ea3a11b8188"),
    # recorded while the scan still composed every level up to N
    (["kisin", "hypothesis", "--p", "3", "--f", "[3,0,1]", "--preset",
      "cyclotomic", "--N", "6"],
     "f3ca264cf994811b7bc3547838145fc5dd821faf25996f58e2051cd95ee718e6"),
]


# exact master data whose denominator is not 1, and the witt-ghost job at
# length 4 over both bases; recorded before the integer exact layer
EXACT_GOLDEN = [
    (["witt-selftest", "--p", "3", "--base", "both", "--witt-len", "4",
      "--trials", "4", "--seed", "11"],
     "cf5710de52989fac447a69667b3ee2daf8533b7810d849881dceed1b9288f26f"),
    (["fixedpoint", "--p", "3", "--f", '["3/2",0,1]', "--E", '["-3/2",1]'],
     "04c990833a86a4e1043add366bf9520786ad68a086468fc4d114dcae24404241"),
    (["fixedpoint", "--p", "3", "--base-g", "[-3,0,1]",
      "--f", '[[0,"1/2"],0,1]', "--E", '[[0,"-1/2"],1]'],
     "85bc51503c39dcb3d15094b3dbc164398895f1cb1be7e134102ec5ea13c2fdd6"),
    (["kisin", "hypothesis", "--p", "3", "--f", '["3/2",0,1]',
      "--E", '["-3/2",1]', "--N", "4"],
     "4fa5794d864d9da64646716071f90238141c3edd5d30292a755afd34aaa5d141"),
    (["intertwine", "--p", "3", "--f", '["3/2",0,1]',
      "--f2", '["3/2","9/4",1]', "--M", "10", "--N", "6"],
     "a4c4126530dc8cb2722a23a70a7a6958dda739c683269dc5bfc7eb1ece3f2c83"),
]


# fixed points whose A_max cut truncates a component (the third one of the
# lubin-tate job is bounded at 12 * 5^6 = 187500), recorded before the Witt
# value layer evaluated its residue tries by Horner
TRUNCATION_GOLDEN = [
    (["fixedpoint", "--preset", "cyclotomic", "--p", "3", "--witt-len", "4",
      "--A-max", "12"],
     "ff0d375d8e160cefb0df5d882e64ddf1739e462d52cb7d5d8dea522d60dcadfd"),
    (["fixedpoint", "--preset", "twisted", "--p", "5", "--witt-len", "3",
      "--A-max", "12"],
     "0243caa2f49ab872a29dfadab23c71cdd2faad57890411d880d9455006312191"),
    (["fixedpoint", "--preset", "lubin-tate", "--p", "5", "--base-g",
      "[-5,0,1]", "--E", "[[0,1],1]", "--witt-len", "3", "--A-max", "12"],
     "58da09ce0abe94f14e15717356e040aff1f00c641998e772a970c0cc5fe6db98"),
]


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv("FROBKIT_PRECISION", raising=False)


@pytest.mark.parametrize("argv, digest", GOLDEN,
                         ids=[" ".join(a[:2]) for a, _ in GOLDEN])
def test_readme_example_report_is_unchanged(capsys, argv, digest):
    assert run(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, digest", KISIN_GOLDEN,
                         ids=["height r=1", "height r=0", "fil1", "minheight",
                              "hypothesis none"])
def test_kisin_cli_report_is_unchanged(capsys, argv, digest):
    assert run(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, digest", EXACT_GOLDEN,
                         ids=["witt-selftest len4", "fixedpoint 3/2",
                              "fixedpoint ramified 1/2", "hypothesis 3/2",
                              "intertwine 9/4"])
def test_exact_fraction_report_is_unchanged(capsys, argv, digest):
    assert run(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, digest", TRUNCATION_GOLDEN,
                         ids=["cyclotomic p3 len4", "twisted p5 len3",
                              "lubin-tate Z5pi len3"])
def test_truncated_fixed_point_report_is_unchanged(capsys, argv, digest):
    assert run(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_reemitted_config_reproduces_the_golden_report(capsys, tmp_path):
    argv, digest = GOLDEN[-1]
    job = tmp_path / "job.json"
    assert run(argv + ["--out", str(job)]) == 0
    capsys.readouterr()
    assert run(["intertwine", "--config", str(job)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
