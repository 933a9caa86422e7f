"""Write expected_records.json: the number of check records every request
key returns, measured on the current checkout.

    python3 bench/make_expected.py

The file in the repository was written at the commit that introduced the
benchmark.  A request that later returns fewer records than listed there
counts as failed, so rewrite the file only when a change adds checks on
purpose, never to make a failing run pass.
"""

import json
import sys

import child
import workloads


def main():
    M = child.import_modata()
    counts = {}
    for workload in workloads.WORKLOADS:
        reqs, state = child.setup(workload, 0, M)
        for req in reqs:
            out = child.execute(req, state, M)
            n, reason, _ = child.check(req, out, state, {req["key"]: 0})
            if reason:
                sys.exit(f"{req['key']}: {reason}")
            counts[req["key"]] = n
        print(f"{workload}: {len(reqs)} requests")
    child.EXPECTED.write_text(json.dumps(counts, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
