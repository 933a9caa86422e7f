"""One digest of the CLI's output over every argv of the cli-sampling
benchmark workload.

The argvs are the distinct ``argv`` of ``workloads.requests("cli-sampling",
s)`` for s = 1000, 2000, ..., 10000 (932 of them).  Each runs through
``modata.cli.main`` in this interpreter with stdout and stderr captured, and
is hashed with its exit code, stdout and stderr; the digest is the SHA-256
of those hashes in sorted argv order.  It is compared with the digest
committed in ``tests/golden/cli-sampling.sha256``, so a change that moves
any byte of any of these reports, or an exit code, fails here.

Run from anywhere, in about a minute:

    python3 tools/cli_digest.py          # compare; exit 1 on a mismatch
    python3 tools/cli_digest.py --write  # record the digest of this tree
"""

import argparse
import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402
from modata import cli  # noqa: E402

GOLDEN = ROOT / "tests" / "golden" / "cli-sampling.sha256"
SEEDS = range(1000, 10001, 1000)


def argvs() -> list[list[str]]:
    seen = {}
    for seed in SEEDS:
        for req in workloads.requests("cli-sampling", seed):
            seen.setdefault(json.dumps(req["argv"]), req["argv"])
    return [seen[key] for key in sorted(seen)]


def run(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    record = json.dumps([argv, code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(record.encode()).hexdigest()


def digest() -> tuple[str, int]:
    total = hashlib.sha256()
    todo = argvs()
    for argv in todo:
        total.update(run(argv).encode())
    return total.hexdigest(), len(todo)


def main(args=None) -> int:
    ap = argparse.ArgumentParser(
        description="Compare the digest of the CLI's output over the "
                    "cli-sampling argvs with the committed one.")
    ap.add_argument("--write", action="store_true",
                    help=f"record the digest in {GOLDEN.relative_to(ROOT)}")
    opts = ap.parse_args(args)
    got, count = digest()
    line = f"{got}  {count} argvs\n"
    if opts.write:
        GOLDEN.write_text(line)
        print(line, end="")
        return 0
    want = GOLDEN.read_text()
    print(f"got      {line}committed {want}", end="")
    return 0 if line == want else 1


if __name__ == "__main__":
    sys.exit(main())
