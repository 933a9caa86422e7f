"""One pass of a workload, in a fresh interpreter.

    python3 bench/child.py --workload NAME --seed N [--trace FILE] [--setup-only]

Set-up imports modata from the checkout's ``src`` directory, generates the
request list and builds the models the requests take as input.  The timed
region then sends the requests one after another (a single client in a
closed loop, no think time) and times each.  The outputs are checked after
the timed region.  The last line of stdout is one JSON object with the
measurements; ``bench/run.py`` starts this script and reads it.

With ``--trace FILE`` every layer's public functions are wrapped (see
``tracer.py``) before set-up, and the spans and counters go to FILE.
"""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import random
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

EXPECTED = BENCH / "expected_records.json"

#: Median of 3560 ``time_reference`` measurements on the machine the
#: baseline was taken on (Intel Xeon at 2.1 GHz, 2 vCPUs, Python 3.11.7).
#: Times are reported at this speed: each measured interval is scaled by
#: NOMINAL_REF_S over the reference time measured around it.
NOMINAL_REF_S = 0.00054

_REF_A = tuple(random.Random(1).randrange(1 << 40) for _ in range(24))
_REF_B = tuple(random.Random(2).randrange(1 << 40) for _ in range(24))


def time_reference() -> float:
    """Seconds taken by a fixed computation that does not use modata.

    Other tenants of a shared machine slow it by up to 2x for seconds at a
    time.  This computation is built like one kernel product (a schoolbook
    product of two 24-term integer polynomials, divided by the gcd of its
    coefficients), so it slows down with the requests timed next to it.
    """
    gc.disable()  # a collection of the requests' garbage is not the machine
    try:
        _reference_product()  # refills the caches the last request emptied
        t0 = time.perf_counter()
        for _ in range(6):
            _reference_product()
        return time.perf_counter() - t0
    finally:
        gc.enable()


def _reference_product():
    acc = [0] * 47
    for i, x in enumerate(_REF_A):
        for j, y in enumerate(_REF_B):
            acc[i + j] += x * y
    g = 0
    for v in acc:
        g = math.gcd(g, v)
    return tuple(v // g for v in acc)


def import_modata():
    """The modata package of this checkout, with every submodule loaded."""
    if not (SRC / "modata" / "__init__.py").is_file():
        raise SystemExit(f"no modata package under {SRC}")
    sys.path.insert(0, str(SRC))
    import modata
    import modata.cli
    import modata.galois
    import modata.lambdamat
    import modata.matrixops
    import modata.modrep
    import modata.modular_data
    import modata.orbifold
    import modata.reporting

    if Path(modata.__file__).resolve().parent != SRC / "modata":
        raise SystemExit(f"imported modata from {modata.__file__}, not {SRC}")
    return modata


def _parse_model(spec):
    name, _, param = spec.partition(":")
    return name, int(param)


def setup(workload, seed, M):
    """Requests of the pass plus the state they run against."""
    reqs = workloads.requests(workload, seed)
    state = {"models": {}, "built": {}, "files": {}}
    if workload == "catalog":
        specs = workloads.FUSION_MODELS
    elif workload == "fractional":
        specs = workloads.FRACTIONAL_MODELS
    else:
        specs = ()
    for spec in specs:
        state["models"][spec] = M.modular_data.builtin_model(*_parse_model(spec))
    return reqs, state


def _model_records(md):
    _, cond = md.conductor()
    return list(md.validation_report) + md.c0_consistency() + cond


def execute(req, state, M):
    """Run one request against modata; returns what the request produced."""
    kind = req["kind"]
    if kind == "verify-builtin":
        md = M.modular_data.builtin_model(*_parse_model(req["model"]))
        state["built"][req["model"]] = md
        return _model_records(md)
    if kind == "verify-file":
        text = state["built"][req["model"]].dumps()
        md = M.modular_data.loads(text)
        state["files"][req["id"]] = (text, md)
        return _model_records(md)
    if kind == "cli":
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = M.cli.main(list(req["argv"]))
        return code, out.getvalue(), err.getvalue()
    md = state["models"][req["model"]]
    if kind == "fusion-row":
        lam, mu = req["lam"], req["mu"]
        return [M.modular_data.verlinde_sum(md.s, lam, mu, nu)
                for nu in range(md.rank)]
    if kind == "lambda-identities":
        return M.lambdamat.verify_lambda_identities(md, Fraction(req["r"]))
    if kind == "hat-functional":
        return [M.lambdamat.hat_functional_equation_check(md, req["k"], req["n"])]
    sl = M.orbifold.OrbSlice(md, req["order"])
    if kind == "orbifold-consistency":
        return M.orbifold.consistency_report(sl)
    if kind == "orbifold-charges":
        return M.orbifold.charge_invariants(sl)
    if kind == "orbifold-index":
        return M.orbifold.mu_scaling_check(sl)
    raise ValueError(f"unknown request kind {kind!r}")


def fusion_rule(spec, lam, mu, nu):
    """Closed-form fusion coefficient of the builtin models."""
    name, param = _parse_model(spec)
    if name == "su2":
        return int(abs(lam - mu) <= nu <= min(lam + mu, 2 * param - lam - mu)
                   and (lam + mu + nu) % 2 == 0)
    return int((lam + mu - nu) % param == 0)


def check(req, out, state, expected):
    """(number of check records, reason for failure or "", stdout digest)."""
    want = expected.get(req["key"])
    if want is None:
        return 0, "no expected record count for this request", ""
    if isinstance(out, BaseException):
        return 0, f"raised {out!r}", ""
    digest = ""
    kind = req["kind"]
    if kind == "cli":
        code, stdout, stderr = out
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        if code != 0:
            return 0, f"exit code {code}: {stderr.strip()[:200]}", digest
        try:
            records = json.loads(stdout)["records"]
        except (ValueError, KeyError, TypeError) as exc:
            return 0, f"unparsable report: {exc!r}", digest
        passed = [r.get("pass") is True for r in records]
    elif kind == "fusion-row":
        records = out
        passed = [n == fusion_rule(req["model"], req["lam"], req["mu"], nu)
                  for nu, n in enumerate(out)]
    else:
        records = out
        passed = [r.passed for r in out]
    if not all(passed):
        return len(records), f"check {passed.index(False)} failed", digest
    if len(records) < want:
        return len(records), f"{len(records)} records, expected {want}", digest
    if kind == "verify-file":
        text, md = state["files"][req["id"]]
        if md.dumps() != text:
            return len(records), "model file does not round-trip", digest
    return len(records), "", digest


def run_pass(reqs, state, M, expected, tracer=None):
    """Send every request, then check the outputs; returns the pass result."""
    outs, lat = [], []
    refs = [time_reference()]
    clock = time.perf_counter
    for req in reqs:
        if tracer is not None:
            tracer.begin("request", req["id"])
        t0 = clock()
        try:
            out = execute(req, state, M)
        except Exception as exc:  # a failing request is counted, not fatal
            out = exc
        lat.append(clock() - t0)
        if tracer is not None:
            tracer.end()
        outs.append(out)
        refs.append(time_reference())
    scaled = [t * 2 * NOMINAL_REF_S / (r0 + r1)
              for t, r0, r1 in zip(lat, refs, refs[1:])]
    failures, digests, n_records = [], {}, 0
    for req, out in zip(reqs, outs):
        n, reason, digest = check(req, out, state, expected)
        n_records += n
        if reason:
            failures.append(f"request {req['id']} ({req['key']}): {reason}")
        if digest:
            digests[" ".join(req["argv"])] = digest
    return {
        "wall_s": sum(scaled),
        "raw_wall_s": sum(lat),
        "latencies_ms": [t * 1000.0 for t in scaled],
        "reference_ms": statistics.median(refs) * 1000.0,
        "attempted": len(reqs),
        "failed": len(failures),
        "failures": failures,
        "records": n_records,
        "digests": digests,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", default=None, help="write spans to this file")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    ref_start = time_reference()
    M = import_modata()
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer(M)
        tracer.install()
        tracer.begin("setup")
    reqs, state = setup(args.workload, args.seed, M)
    if tracer is not None:
        tracer.end()
    expected = json.loads(EXPECTED.read_text())
    setup_end = time.monotonic()
    result = {"setup_end": setup_end, "setup_scale":
              2 * NOMINAL_REF_S / (ref_start + time_reference())}
    if not args.setup_only:
        result.update(run_pass(reqs, state, M, expected, tracer))
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.metrics()
        result["silent"] = tracer.silent(args.workload)
        tracer.write(args.trace, reqs)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
