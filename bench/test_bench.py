"""Self-tests of the benchmark.

    python3 -m pytest -q bench/test_bench.py

They take under a minute, most of it in two traced passes.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import child  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

EXPECTED = json.loads(child.EXPECTED.read_text())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_fixes_the_request_list(workload):
    first = workloads.requests(workload, 7)
    assert first == workloads.requests(workload, 7)
    other = workloads.requests(workload, 8)
    assert first != other
    assert sorted(r["key"] for r in first) == sorted(r["key"] for r in other)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_request_has_an_expected_record_count(workload):
    reqs = workloads.requests(workload, 1)
    assert len(reqs) >= 100
    assert [r["id"] for r in reqs] == list(range(len(reqs)))
    assert all(r["key"] in EXPECTED for r in reqs)


def test_cli_seeds_follow_the_workload_seed():
    def cli_seeds(seed):
        return sorted(r["argv"][r["argv"].index("--seed") + 1]
                      for r in workloads.requests("cli-sampling", seed)
                      if "--seed" in r["argv"])

    assert cli_seeds(1) == cli_seeds(1)
    assert cli_seeds(1) != cli_seeds(2)


def test_verify_file_follows_verify_builtin():
    for seed in range(20):
        seen = set()
        for req in workloads.requests("catalog", seed):
            if req["kind"] == "verify-builtin":
                seen.add(req["model"])
            elif req["kind"] == "verify-file":
                assert req["model"] in seen


def test_injected_failures_count():
    M = child.import_modata()
    galois = "cli galois --model su2:1 --l 5,7,11,13 --samples 10 --seed S --json"
    reqs = [
        {"id": 0, "kind": "cli", "key": "cli verify --model su2:1 --json",
         "argv": ["verify", "--model", "su2:1", "--json"]},
        # l = 2 shares a factor with the conductor 24: the report notes a
        # skip as a passing record, and returns fewer records than expected.
        {"id": 1, "kind": "cli", "key": galois,
         "argv": ["galois", "--model", "su2:1", "--l", "2,7,11,13",
                  "--samples", "10", "--seed", "3", "--json"]},
        # an unknown model is a configuration error (exit code 2)
        {"id": 2, "kind": "cli", "key": "cli verify --model su2:1 --json",
         "argv": ["verify", "--model", "su2:0", "--json"]},
        # raises inside modata
        {"id": 3, "kind": "verify-builtin", "key": "verify-builtin su2:1",
         "model": "su2:-1"},
    ]
    result = child.run_pass(reqs, {"models": {}, "built": {}, "files": {}},
                            M, EXPECTED)
    assert result["attempted"] == 4
    assert result["failed"] == 3
    assert "17 records, expected 19" in result["failures"][0]


def test_traced_counts_repeat():
    run.OUT.mkdir(exist_ok=True)
    deadline = time.monotonic() + 300
    a, b = (run.spawn("fractional", 3, deadline,
                      trace=run.OUT / f"selftest-trace-{i}.json.gz")
            for i in range(2))
    counts = [k for k, (_, unit) in a["layers"].items() if unit == "count"]
    for key in ("cyclo.mul.calls", "cyclo.mul.coeff_products",
                "cyclo.context.built", "matrixops.mat_mul.entry_products"):
        assert key in counts and a["layers"][key][0] > 0
    assert {k: a["layers"][k] for k in counts} == {
        k: b["layers"][k] for k in counts}
    assert a["silent"] == [] and a["failed"] == 0


def test_refuses_to_run_without_the_program():
    bare = run.OUT / "bare"  # holds only BENCHMARK.json and bench/
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(BENCH.parent / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "catalog", "--seed", "1",
         "--seconds", "5", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
