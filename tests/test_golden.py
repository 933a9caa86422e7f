"""Canonical --json reports, byte for byte.

Each file under tests/golden/ holds the stdout of one invocation, recorded
before the code it reports on moved to packed matrices (the sampling
checks, then model validation) or, for the su2:3 lambda and the N = 9
orbifold, before products by roots of unity became exponent shifts, or,
for the su2:1 (c0 = -7, where g(1/3) != 0) and cyclic_odd:5 hatted
lambdas, before the lambda suite moved to packed matrices, or, for the
su2:6 Galois report and the two corrupted su2:3 files, before S S^dagger,
S T S and the signed permutation G_l moved to the packed S, or, for the
su2:2 orbifold at N = 4 with tau2 = 2, before the orbifold S entries moved
to packed blocks; a change to the evaluators must leave every byte of
these reports as it was.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from modata import cli
from modata.modular_data import builtin_model

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = {
    "galois-su2-1": ["galois", "--model", "su2:1", "--l", "5,7,11,13",
                     "--samples", "10", "--seed", "7", "--json"],
    "galois-su2-2": ["galois", "--model", "su2:2", "--l", "3,5,7,9",
                     "--samples", "10", "--seed", "7", "--json"],
    "galois-cyclic_odd-3": ["galois", "--model", "cyclic_odd:3",
                            "--l", "5,7,11,13", "--samples", "10",
                            "--seed", "7", "--json"],
    "galois-su2-4": ["galois", "--model", "su2:4", "--l", "5,7,11,13",
                     "--samples", "10", "--seed", "7", "--json"],
    # G_3, G_5 and G_7 of su2:6 move labels and carry signs
    "galois-su2-6": ["galois", "--model", "su2:6", "--l", "3,5,7",
                     "--samples", "3", "--json"],
    "lambda-su2-2-hat": ["lambda", "--model", "su2:2", "--r=2/5", "--hat",
                         "--json"],
    "lambda-su2-3-r3-10": ["lambda", "--model", "su2:3", "--r=3/10",
                           "--json"],
    "lambda-su2-1-c0m7-r1-3-hat": ["lambda", "--model", "su2:1", "--c0=-7",
                                   "--r=1/3", "--hat", "--json"],
    "lambda-cyclic_odd-5-r3-4-hat": ["lambda", "--model", "cyclic_odd:5",
                                     "--r=3/4", "--hat", "--json"],
    "orbifold-su2-1-order5": ["orbifold", "--model", "su2:1", "--order", "5",
                              "--json"],
    "orbifold-su2-2-order9": ["orbifold", "--model", "su2:2", "--order", "9",
                              "--json"],
    # even N with tau2 != 0: the tb = 0 blocks move S's rows by label 2
    "orbifold-su2-2-order4-tau2-2": ["orbifold", "--model", "su2:2",
                                     "--order", "4", "--tau2", "2", "--json"],
    "verify-cyclic_odd-9": ["verify", "--model", "cyclic_odd:9", "--json"],
    "verify-cyclic_odd-11": ["verify", "--model", "cyclic_odd:11", "--json"],
    "verify-su2-7": ["verify", "--model", "su2:7", "--json"],
    "verify-su2-10": ["verify", "--model", "su2:10", "--json"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_is_byte_identical(name, capsysbinary):
    assert cli.main(CASES[name]) == 0
    out = capsysbinary.readouterr()
    assert out.err == b""
    assert out.out == (GOLDEN / f"{name}.json").read_bytes()


def _negate_s01(obj):
    for i, j in ((0, 1), (1, 0)):
        entry = obj["S"][i][j]
        entry["coeffs"] = [str(-Fraction(x)) for x in entry["coeffs"]]


def _shift_delta1(obj):
    obj["delta"][1] = "13/20"


#: Reports on su2:3 dumped to a file and corrupted: S[0][1] and S[1][0]
#: negated fail s_unitary at entry (0, 1); delta_1 moved by 1/2, which
#: negates T_1, fails sts_twist_relation at entry (0, 0).
FILE_CASES = {
    "verify-su2-3-s01-negated": _negate_s01,
    "verify-su2-3-delta1-13-20": _shift_delta1,
}


@pytest.mark.parametrize("name", sorted(FILE_CASES))
def test_corrupted_file_report_is_byte_identical(name, capsysbinary,
                                                 monkeypatch, tmp_path):
    obj = json.loads(builtin_model("su2", 3).dumps())
    FILE_CASES[name](obj)
    path = name.removeprefix("verify-") + ".json"
    (tmp_path / path).write_text(json.dumps(obj))
    monkeypatch.chdir(tmp_path)  # the report names the file as given
    assert cli.main(["verify", path, "--json"]) == 1
    out = capsysbinary.readouterr()
    assert out.err == b""
    assert out.out == (GOLDEN / f"{name}.json").read_bytes()
