"""Command-line surface: exit codes, file IO, notices, determinism."""

import contextlib
import copy
import functools
import io
import json
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modata.cli import main
from modata.modular_data import builtin_model


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def assert_one_error_line(err):
    assert err.startswith("error: ") and err.count("\n") == 1, err


def _coefficient_x():
    obj = json.loads(builtin_model("su2", 1).dumps())
    obj["S"][0][0]["coeffs"][0] = "x"
    return json.dumps(obj)


class TestVerify:
    def test_builtin_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--model", "su2:1")
        assert code == 0
        assert "all passed" in out

    def test_trivial(self, capsys):
        assert run(capsys, "verify", "--model", "trivial")[0] == 0

    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(builtin_model("su2", 2).dumps())
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 0

    def test_corrupted_file_names_identity(self, capsys, tmp_path):
        obj = json.loads(builtin_model("su2", 1).dumps())
        obj["delta"][1] = "1/3"  # breaks the twist relation
        path = tmp_path / "corrupt.json"
        path.write_text(json.dumps(obj))
        code, out, err = run(capsys, "verify", str(path))
        assert code == 1
        assert "sts_twist_relation" in out + err

    def test_unreadable_file_is_parse_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "verify", str(path))
        assert code == 2

    @pytest.mark.parametrize("spec", ["trivial:3", "trivial:0"])
    def test_trivial_with_a_parameter_is_parse_error(self, capsys, spec):
        code, out, err = run(capsys, "verify", "--model", spec)
        assert code == 2 and out == ""
        assert err == "error: trivial takes no parameter\n"

    def test_unknown_builtin_is_parse_error(self, capsys):
        code, _, err = run(capsys, "verify", "--model", "su9:1")
        assert code == 2 and "error" in err

    def test_c0_override_flag(self, capsys):
        code, out, _ = run(capsys, "verify", "--model", "su2:1",
                           "--c0", "-7", "--json")
        assert code == 0
        assert json.loads(out)["config"]["c0"] == "-7"

    def test_bad_c0_override_rejected(self, capsys):
        code, _, err = run(capsys, "verify", "--model", "su2:1", "--c0", "2")
        assert code == 2

    def test_malformed_c0_is_parse_error(self, capsys):
        code, _, err = run(capsys, "verify", "--model", "su2:1",
                           "--c0", "x/y")
        assert code == 2 and "malformed" in err

    @pytest.mark.parametrize("text", [
        '{"labels": ["0"]}',  # no S, delta, c or c0
        "[1, 2]",  # not an object
        _coefficient_x(),
        '{"labels": ["0"], "S": [[{"order": 1, "coeffs": ["1"]}]], '
        '"delta": ["0"], "c": "0", "c0": "0", "tau2": "x"}',
        '{"labels": ["0"], "S": [[{"order": 10000000000000000000000000000'
        '000000000000000000000000000000001, "coeffs": []}]], '
        '"delta": ["0"], "c": "0", "c0": "0"}',
        '{"labels": ["0"], "S": [[{"order": 4, "coeffs": "12"}]], '
        '"delta": ["0"], "c": "0", "c0": "0"}',
        '{"labels": ["0"], "S": [[{"order": 1.9, "coeffs": ["1"]}]], '
        '"delta": ["0"], "c": "0", "c0": "0"}',
        '{"labels": ["0"], "S": [[{"order": true, "coeffs": ["1"]}]], '
        '"delta": ["0"], "c": "0", "c0": "0"}',
        '{"labels": ["0"], "S": [[{"order": 1, "coeffs": ["1"]}]], '
        '"delta": ["0"], "c": "0", "c0": "0", "tau2": 0.9}',
        '{"labels": ["0"], "S": [[{"order": 1, "coeffs": ["1"]}]], '
        '"delta": ["0"], "c": "0", "c0": "0", "tau2": false}',
        '{"labels": ["0"], "S": [[{"order": 1, "coeffs": ["1"]}]], '
        '"delta": ["0"], "c": "0", "c0": "0", "tau2": "0"}',
        '{"labels": ["0"], "S": [[{"order": 1, "coeffs": [1.0]}]], '
        '"delta": ["0"], "c": "0", "c0": "0"}',
        '{"labels": ["0"], "S": [[{"order": 1, "coeffs": [true]}]], '
        '"delta": ["0"], "c": "0", "c0": "0"}',
        '{"labels": ["0"], "S": [[{"order": 1, "coeffs": ["1"]}]], '
        '"delta": [0.0], "c": "0", "c0": "0"}',
        '{"labels": ["0"], "S": [[{"order": 1, "coeffs": ["1"]}]], '
        '"delta": ["0"], "c": "0", "c0": false}',
    ], ids=["missing-keys", "top-level-list", "coefficient-x", "tau2-x",
            "huge-order", "coeffs-string", "order-float", "order-bool",
            "tau2-float", "tau2-bool", "tau2-string", "coefficient-float",
            "coefficient-bool", "delta-float", "c0-bool"])
    def test_malformed_file_is_parse_error(self, capsys, tmp_path, text):
        path = tmp_path / "model.json"
        path.write_text(text)
        for extra in ([], ["--c0", "0"]):  # the override edits the object
            code, _, err = run(capsys, "verify", str(path), *extra)
            if extra and '"c0": false' in text:
                assert code == 0  # the override replaces the refused c0
                continue
            assert code == 2
            assert_one_error_line(err)

    @pytest.mark.parametrize("entry,kind", [
        ("1", "int"), ('[1, "0"]', "list"), ('"1"', "str"),
        ("null", "NoneType"),
    ], ids=["entry-int", "entry-list", "entry-string", "entry-null"])
    def test_s_entry_not_an_object(self, capsys, tmp_path, entry, kind):
        path = tmp_path / "model.json"
        path.write_text(
            '{"labels": ["0", "1"], "S": [[{"order": 1, "coeffs": ["1"]}, '
            f'{entry}], [{entry}, {{"order": 1, "coeffs": ["-1"]}}]], '
            '"delta": ["0", "1/2"], "c": "0", "c0": "0"}')
        code, _, err = run(capsys, "verify", str(path))
        assert code == 2
        assert_one_error_line(err)
        assert err == (
            f"error: malformed model file {path}: malformed cyclotomic "
            'number: expected {"order": int, "coeffs": [...]}, '
            f"not {kind}\n")


class TestGalois:
    def test_su2_1(self, capsys):
        code, out, _ = run(capsys, "galois", "--model", "su2:1",
                           "--l", "5,7,11", "--samples", "10", "--seed", "1")
        assert code == 0

    def test_noncoprime_l_noticed(self, capsys):
        code, out, _ = run(capsys, "galois", "--model", "su2:2",
                           "--l", "4", "--samples", "5")
        assert code == 0
        assert "skipped" in out

    def test_malformed_l_is_parse_error(self, capsys):
        code, _, err = run(capsys, "galois", "--model", "su2:1",
                           "--l", "5,apple", "--samples", "2")
        assert code == 2 and "malformed" in err

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_samples_below_one_is_parse_error(self, capsys, samples):
        code, out, err = run(capsys, "galois", "--model", "su2:1",
                             "--l", "5", "--samples", samples)
        assert code == 2 and out == ""
        assert_one_error_line(err)


class TestLambda:
    def test_r_zero_prints_s(self, capsys):
        code, out, _ = run(capsys, "lambda", "--model", "su2:1",
                           "--r", "0", "--approx", "6")
        assert code == 0
        assert out.splitlines()[0].startswith("0.707107")

    def test_hat_suite(self, capsys):
        code, out, _ = run(capsys, "lambda", "--model", "su2:2",
                           "--r", "1/3", "--hat")
        assert code == 0

    def test_periodic_arguments_equal_output(self, capsys):
        outs = []
        for r in ("1/3", "4/3", "7/3"):
            _, out, _ = run(capsys, "lambda", "--model", "su2:1",
                            "--r", r, "--approx", "8")
            outs.append(out.splitlines()[:2])  # matrix block
        assert outs[0] == outs[1] == outs[2]

    def test_malformed_r(self, capsys):
        code, _, err = run(capsys, "lambda", "--model", "su2:1", "--r", "x/y")
        assert code == 2

    def test_negative_r_equals_form(self, capsys):
        code, out, _ = run(capsys, "lambda", "--model", "su2:1", "--r=-1/3")
        assert code == 0

    def test_excessive_approx_is_parse_error(self, capsys):
        code, _, err = run(capsys, "lambda", "--model", "su2:1",
                           "--r", "0", "--approx", "50")
        assert code == 2

    def test_order_cap_is_parse_error(self, capsys, monkeypatch):
        monkeypatch.setenv("MODATA_MAX_ORDER", "4096")
        code, _, err = run(capsys, "lambda", "--model", "su2:1",
                           "--r", "1/5000")
        assert code == 2 and "exceeds MODATA_MAX_ORDER=4096" in err
        assert_one_error_line(err)

    def test_non_integer_order_cap_is_parse_error(self, capsys, monkeypatch):
        monkeypatch.setenv("MODATA_MAX_ORDER", "lots")
        code, _, err = run(capsys, "lambda", "--model", "su2:1",
                           "--r", "1/4999")
        assert code == 2 and "MODATA_MAX_ORDER='lots'" in err
        assert_one_error_line(err)


class TestOrbifold:
    def test_order_two(self, capsys):
        code, out, _ = run(capsys, "orbifold", "--model", "su2:1",
                           "--order", "2")
        assert code == 0

    def test_order_fifteen_exercises_factorization(self, capsys):
        code, out, _ = run(capsys, "orbifold", "--model", "su2:1",
                           "--order", "15", "--checks", "consistency")
        assert code == 0
        assert "odd_coprime_factorization" in out

    def test_trivial_order_three(self, capsys):
        assert run(capsys, "orbifold", "--model", "trivial",
                   "--order", "3")[0] == 0

    def test_check_selection(self, capsys):
        code, out, _ = run(capsys, "orbifold", "--model", "su2:1",
                           "--order", "2", "--checks", "charges")
        assert code == 0
        assert "charge_transport" in out and "hat_closure" not in out

    def test_unknown_check_rejected(self, capsys):
        code, _, err = run(capsys, "orbifold", "--model", "su2:1",
                           "--order", "2", "--checks", "nope")
        assert code == 2


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ("verify", "--model", "su2:1", "--json"),
        ("galois", "--model", "su2:1", "--l", "5,7", "--samples", "15",
         "--seed", "9", "--json"),
        ("lambda", "--model", "su2:2", "--r", "1/3", "--hat", "--json"),
        ("orbifold", "--model", "su2:1", "--order", "2", "--seed", "4",
         "--json"),
    ])
    def test_byte_identical_reports(self, capsys, argv):
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second

    def test_successive_calls_share_no_arguments(self, capsys):
        # one parser serves every call of the process: nothing a call
        # parses may become a default of the next
        galois = ("galois", "--model", "su2:1", "--l", "5", "--samples",
                  "2", "--json")
        run(capsys, *galois, "--seed", "5")
        _, out, _ = run(capsys, *galois)
        assert json.loads(out)["config"]["seed"] == "1"
        lam = ("lambda", "--model", "su2:1", "--r", "1/3", "--json")
        run(capsys, *lam, "--hat")
        _, out, _ = run(capsys, *lam)
        assert json.loads(out)["config"]["hat"] == "False"
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--model", "su2:1", "--no-such-flag"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --no-such-flag" in \
            capsys.readouterr().err
        assert run(capsys, "verify", "--model", "su2:1")[0] == 0

    def test_subprocess_matches_in_process(self, capsys):
        argv = ["verify", "--model", "su2:1", "--json"]
        _, inproc, _ = run(capsys, *argv)
        proc = subprocess.run(
            [sys.executable, "-m", "modata.cli", *argv],
            capture_output=True, text=True, check=True,
        )
        assert proc.stdout == inproc


@functools.cache
def _dump(spec):
    name, param = spec
    return builtin_model(name, param).dumps()


def _slots(node):
    """Every (container, key) pair of a JSON tree, parents first."""
    if isinstance(node, dict):
        items = list(node.items())
    elif isinstance(node, list):
        items = list(enumerate(node))
    else:
        return
    for key, child in items:
        yield node, key
        yield from _slots(child)


_JUNK = st.sampled_from([
    None, 0, -1, 2, 1.5, True, "", "x", "1/0", "4", [], {}, ["1"],
    {"order": 1, "coeffs": ["1"]},
])
_NUMBERS = st.sampled_from(["0", "1", "-1", "1/2", "-3/4", "7/3", "2"])


@st.composite
def corrupted_models(draw):
    """A dump of su2:2 or cyclic_odd:3 after one to three corruptions:
    a dropped key, a value of another type, a changed number, a truncated
    list, or permuted labels."""
    obj = json.loads(_dump(draw(st.sampled_from([("su2", 2),
                                                 ("cyclic_odd", 3)]))))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(
            ["drop", "retype", "number", "truncate", "permute", "relabel"]))
        slots = list(_slots(obj))
        if kind == "drop":
            slots = [(c, k) for c, k in slots if isinstance(c, dict)]
        elif kind == "number":
            slots = [(c, k) for c, k in slots if isinstance(c[k], str)]
        elif kind in ("truncate", "permute"):
            slots = [(c, k) for c, k in slots if isinstance(c[k], list)]
        elif kind == "relabel":
            slots = [(obj, "labels")] if isinstance(obj.get("labels"),
                                                     list) else []
        if not slots:
            continue
        container, key = draw(st.sampled_from(slots))
        if kind == "drop":
            del container[key]
        elif kind == "retype":
            container[key] = copy.deepcopy(draw(_JUNK))  # shared values
        elif kind == "number":
            container[key] = draw(_NUMBERS)
        elif kind == "truncate":
            del container[key][draw(st.integers(0, len(container[key]))):]
        elif kind == "permute":
            container[key] = draw(st.permutations(container[key]))
        else:  # the same datum under other labels, where the shape allows
            perm = draw(st.permutations(range(len(obj["labels"]))))
            for k in ("labels", "delta", "S"):
                if isinstance(obj.get(k), list) and len(obj[k]) == len(perm):
                    obj[k] = [obj[k][p] for p in perm]
            if isinstance(obj.get("S"), list):
                obj["S"] = [
                    [row[p] for p in perm]
                    if isinstance(row, list) and len(row) == len(perm)
                    else row
                    for row in obj["S"]
                ]
    return obj


class TestCorruptedModelFiles:
    @settings(max_examples=60, deadline=None)
    @given(corrupted_models())
    def test_verify_exits_cleanly(self, obj):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "model.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(obj, fh)
            out, err = io.StringIO(), io.StringIO()
            with (contextlib.redirect_stdout(out),
                  contextlib.redirect_stderr(err)):
                code = main(["verify", path])
        assert code in (0, 1, 2)
        if code == 2:
            assert_one_error_line(err.getvalue())
