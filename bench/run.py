"""modata benchmark: end-to-end and per-layer metrics of one workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; modata is imported from its ``src``
directory.  Each pass of the workload runs ``bench/child.py`` in a fresh
interpreter at the default ``MODATA_MAX_ORDER``, so kernel contexts and
every other cache start cold, as they do for each CLI user.

``--trace 0`` runs passes back to back until the next one, and the
set-up-only starts that would follow it, would end after ``--seconds``,
each pass with its own request list derived from ``--seed``
(``pass_seed``), then reports the end-to-end metrics: medians over passes
of the timed region (``wall_s``), of peak memory and of set-up time (with
extra set-up-only starts, so at least ``SETUP_SAMPLES`` are taken), and
latency percentiles over all requests of all passes.  Times are scaled to
nominal machine speed (see ``child.time_reference``).

``--trace 1`` runs one untraced pass and one traced pass and reports the
per-layer metrics of the traced pass, plus the tracing overhead (traced
minus untraced ``wall_s``).

Human-readable lines come first; the last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  A copy
of the result, with the machine, the code and the stdout digests of the
requests, is written to ``bench/out/``.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

SETUP_SAMPLES = 9
#: A run starts another pass only if this multiple of its longest pass so
#: far, and of the set-up-only starts still needed after it, fits before
#: --seconds; passes of one run vary by about 10%.
NEXT_PASS_MARGIN = 1.1
#: A run never takes longer than this, whatever --seconds says.
HARD_LIMIT_S = 170.0


class PassFailed(Exception):
    """A child interpreter died, timed out or printed no result."""


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k != "MODATA_MAX_ORDER" and not k.startswith("PYTHON")}
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(workload, seed, deadline, trace=None, setup_only=False) -> dict:
    """One child pass; adds ``setup_s``, measured from the spawn."""
    cmd = [sys.executable, "-s", str(BENCH / "child.py"),
           "--workload", workload, "--seed", str(seed)]
    if trace:
        cmd += ["--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise PassFailed(f"pass did not end within {deadline - start:.0f} s")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassFailed(f"exit code {proc.returncode}: {err.strip()[-500:]}")
    result = json.loads(lines[-1])
    result["raw_setup_s"] = result.pop("setup_end") - start
    result["setup_s"] = result["raw_setup_s"] * result.pop("setup_scale")
    return result


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "modata").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "commit": commit(),
        "src_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def pass_seed(seed, index) -> int:
    """Seed of the request list of pass `index` of a run with `seed`.

    Each pass of a run sends another request order and other CLI seeds, so
    a run's latency percentiles depend less on one draw of them."""
    return 1000 * seed + index


def percentile_ms(values, q) -> float:
    """q-th percentile (0 < q < 100) of values, as statistics.quantiles."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_untraced(args, t_start):
    deadline = t_start + args.seconds
    hard = t_start + HARD_LIMIT_S
    passes, problems = [], []
    longest = longest_setup = 0.0
    while True:
        begin = time.monotonic()
        passes.append(spawn(args.workload, pass_seed(args.seed, len(passes)),
                            hard))
        longest = max(longest, time.monotonic() - begin)
        longest_setup = max(longest_setup, passes[-1]["raw_setup_s"])
        # Another pass must leave time for the set-up-only starts after it.
        missing = max(0, SETUP_SAMPLES - len(passes) - 1)
        need = NEXT_PASS_MARGIN * (longest + missing * longest_setup)
        if time.monotonic() + need > deadline:
            break
    setups = [p["setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn(args.workload, args.seed, hard,
                            setup_only=True)["setup_s"])
    digests = {}
    for p in passes:
        problems += p["failures"]
        for argv, digest in p["digests"].items():
            if digests.setdefault(argv, digest) != digest:
                problems.append(f"stdout of modata {argv} differs between passes")
    latencies = [t for p in passes for t in p["latencies_ms"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    metrics = {
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "request_p50_ms": (statistics.median(latencies), "ms"),
        "request_p90_ms": (percentile_ms(latencies, 90), "ms"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes),
                        "MiB"),
        "setup_s": (statistics.median(setups), "s"),
        "pass_frac": (1.0 - failed / attempted, "ratio"),
    }
    n = len(latencies)
    notes = [
        f"passes: {len(passes)}, wall_s each: "
        + ", ".join(f"{p['wall_s']:.3f}" for p in passes)
        + "; unscaled: " + ", ".join(f"{p['raw_wall_s']:.3f}" for p in passes)
        + "; reference ms: "
        + ", ".join(f"{p['reference_ms']:.4f}" for p in passes),
        f"request latency: n={n}, p50 and p90 over all passes, "
        f"{sum(1 for t in latencies if t > metrics['request_p90_ms'][0])} "
        f"requests beyond p90",
        "setup_s samples: " + ", ".join(f"{s:.3f}" for s in setups),
        "stdout digest of the CLI requests: " + hashlib.sha256(
            json.dumps(digests, sort_keys=True).encode()).hexdigest(),
    ]
    extra = {"passes": [{k: p[k] for k in (
                 "wall_s", "raw_wall_s", "reference_ms", "setup_s",
                 "peak_rss_mb", "attempted", "failed", "records")}
                        for p in passes],
             "digests": digests}
    return metrics, attempted, failed, problems, notes, extra


def run_traced(args, t_start):
    hard = t_start + HARD_LIMIT_S
    trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json.gz"
    seed = pass_seed(args.seed, 0)
    plain = spawn(args.workload, seed, hard)
    traced = spawn(args.workload, seed, hard, trace=trace_file)
    problems = plain["failures"] + traced["failures"]
    if plain["digests"] != traced["digests"]:
        problems.append("tracing changed the stdout of a request")
    problems += [f"traced group {g} was never called" for g in traced["silent"]]
    metrics = {k: tuple(v) for k, v in traced["layers"].items()}
    overhead = traced["wall_s"] - plain["wall_s"]
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_frac"] = (overhead / plain["wall_s"], "ratio")
    notes = [f"untraced wall_s {plain['wall_s']:.3f}, traced wall_s "
             f"{traced['wall_s']:.3f}, overhead {overhead:+.3f} s",
             f"spans and kernel aggregates written to "
             f"{trace_file.relative_to(ROOT)}"]
    attempted = plain["attempted"] + traced["attempted"]
    failed = plain["failed"] + traced["failed"]
    return metrics, attempted, failed, problems, notes, {}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    t_start = time.monotonic()
    for need in (ROOT / "src" / "modata" / "__init__.py",
                 BENCH / "expected_records.json"):
        if not need.is_file():
            print(f"error: {need} not found; run from a modata checkout",
                  file=sys.stderr)
            return 2
    OUT.mkdir(exist_ok=True)
    run = run_traced if args.trace else run_untraced
    try:
        metrics, attempted, failed, problems, notes, extra = run(args, t_start)
    except PassFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    env = environment(args)
    print("environment: " + json.dumps(env, sort_keys=True))
    for line in notes:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    for line in problems[:20]:
        print("problem: " + line, file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{tag}.json").write_text(json.dumps(
        dict(result, environment=env, notes=notes, problems=problems, **extra),
        indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
