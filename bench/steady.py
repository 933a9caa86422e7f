"""Run-to-run spread of the end-to-end metrics, and the recorded baseline.

    python3 bench/steady.py [--write FILE]

Runs the command of ``BENCHMARK.json`` with ``--trace 0`` once per seed
1 to 10 and workload, interleaving the workloads and rotating their order
from seed to seed, with ``run_seconds`` from ``BENCHMARK.json``.  For every
(workload, metric) it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the distance
between the quartiles as a share of the median, next to the metric's
bound.  ``--write`` stores all of it, with every value measured,
as JSON; ``bench/baseline.json`` was written this way.
"""

import argparse
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
sys.path.insert(0, str(BENCH))

import run  # noqa: E402


SEEDS = range(1, 11)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--write", type=Path, default=None)
    args = ap.parse_args()
    names = [w["name"] for w in spec["workloads"]]
    values = {w: {} for w in names}
    durations = []
    for i, seed in enumerate(SEEDS):
        for w in names[i % len(names):] + names[:i % len(names)]:
            start = time.monotonic()
            proc = subprocess.run(
                spec["command"] + ["--workload", w, "--seed", str(seed),
                                   "--seconds", str(spec["run_seconds"]),
                                   "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=False)
            durations.append(time.monotonic() - start)
            if proc.returncode != 0:
                sys.exit(f"{w} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                sys.exit(f"{w} seed {seed}: incorrect\n{proc.stderr}")
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print(f"{w} seed {seed}: {durations[-1]:.1f} s, " + ", ".join(
                f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()),
                flush=True)
    report = {}
    print(f"{'workload':13} {'metric':15} {'median':>10} {'q1':>10} "
          f"{'q3':>10} {'spread':>7} {'bound':>6}")
    for w in names:
        report[w] = {}
        for metric in spec["end_to_end"]:
            vals = values[w][metric["name"]]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            report[w][metric["name"]] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread,
                "bound": metric["bound"], "unit": metric["unit"],
                "values": vals}
            flag = "" if spread < metric["bound"] / 3 else "  <-- wide"
            print(f"{w:13} {metric['name']:15} {med:10.4g} {q1:10.4g} "
                  f"{q3:10.4g} {spread:7.4f} {metric['bound']:6.3f}{flag}")
    print(f"run durations: max {max(durations):.1f} s, "
          f"mean {statistics.mean(durations):.1f} s")
    if args.write:
        args.write.write_text(json.dumps({
            "seeds": list(SEEDS),
            "run_seconds": spec["run_seconds"],
            "python": platform.python_version(),
            "platform": platform.platform(),
            "nproc": os.cpu_count(),
            "commit": run.commit(),
            "src_sha256": run.source_digest(),
            "run_durations_s": durations,
            "metrics": report,
        }, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
