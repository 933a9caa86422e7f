"""Canonical --json reports, byte for byte.

Each file under tests/golden/ holds the stdout of one invocation, recorded
before the code it reports on moved to packed matrices (the sampling
checks, then model validation) or, for the su2:3 lambda and the N = 9
orbifold, before products by roots of unity became exponent shifts, or,
for the su2:1 (c0 = -7, where g(1/3) != 0) and cyclic_odd:5 hatted
lambdas, before the lambda suite moved to packed matrices; a change to the
evaluators must leave every byte of these reports as it was.
"""

from pathlib import Path

import pytest

from modata import cli

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
