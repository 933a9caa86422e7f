"""Command-line surface: model generation, file IO, and verification suites.

Commands::

    modata verify   (--model NAME[:PARAM] | FILE) [--c0 X] [--tau2 I] [--json]
    modata galois   ... --l 5,7,11 --samples 100 --seed 1
    modata lambda   ... --r k/n [--hat] [--approx DIGITS]
    modata orbifold ... --order N [--checks consistency,charges,...]

Exit codes: 0 all checks passed, 1 at least one check failed, 2 on parse or
configuration errors (including malformed model files and orders above
MODATA_MAX_ORDER).  Machine reports (--json) are canonical: sorted keys,
fixed field order, no timestamps, so identical invocations are byte-identical.
"""

import argparse
import functools
import json
import math
import os
import sys
from fractions import Fraction

from . import __version__
from .cyclo import embed_complex
from .errors import (
    AxiomViolationError,
    ModataError,
    ModelFormatError,
    OrderCapError,
)
from .galois import congruence_suite, kernel_test, verify_galois_identities
from .lambdamat import lambda_hat, lambda_mat, verify_lambda_identities
from .modrep import Lcg, random_word_matrix
from .modular_data import ModularData, builtin_model, from_obj
from .orbifold import (
    OrbSlice,
    charge_invariants,
    consistency_report,
    multiplicity_report,
    mu_scaling_check,
)
from .reporting import RunReport, first_failure, notice

PARSE_ERROR = 2
CHECK_FAILURE = 1


class CliError(Exception):
    """Bad invocation or unreadable input; maps to exit code 2."""


def _resolve_model(args) -> tuple[ModularData, str]:
    """File paths win over builtin names on collision."""
    spec = args.source or args.model
    if spec is None:
        raise CliError("no model given: pass a file or --model NAME[:PARAM]")
    try:
        c0_override = Fraction(args.c0) if args.c0 is not None else None
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(f"malformed --c0 {args.c0!r}: {exc}")
    tau2 = args.tau2 or 0
    if os.path.exists(spec):
        try:
            with open(spec, "r", encoding="utf-8") as fh:
                obj = json.load(fh)
        except (OSError, ValueError) as exc:  # JSON or UTF-8 decoding
            raise CliError(f"cannot read model file {spec}: {exc}")
        if isinstance(obj, dict):  # from_obj rejects anything else
            if c0_override is not None:
                obj["c0"] = str(c0_override)
            if args.tau2 is not None:
                obj["tau2"] = tau2
        try:
            return from_obj(obj), spec
        except ModelFormatError as exc:
            raise CliError(f"malformed model file {spec}: {exc}")
    name, _, param = spec.partition(":")
    try:
        return (
            builtin_model(
                name,
                int(param) if param else None,
                c0_override=c0_override,
                tau2=tau2,
            ),
            spec,
        )
    except (ValueError, ModataError) as exc:
        raise CliError(str(exc))


def _emit(report: RunReport, as_json: bool) -> int:
    print(report.to_json() if as_json else report.human_text())
    return 0 if report.all_passed() else CHECK_FAILURE


def _base_report(md: ModularData, model_id: str, args) -> RunReport:
    return RunReport(
        version=__version__,
        model=model_id,
        config={
            "c0": md.c0,
            "tau2": md.tau2,
            "seed": getattr(args, "seed", 0),
        },
    )


def cmd_verify(args) -> int:
    try:
        md, model_id = _resolve_model(args)
    except AxiomViolationError as exc:
        report = RunReport(
            version=__version__,
            model=args.source or args.model,
            config={"c0": args.c0 or "", "tau2": args.tau2 or 0, "seed": 0},
            records=list(exc.report),
        )
        _emit(report, args.json)
        return CHECK_FAILURE
    report = _base_report(md, model_id, args)
    report.extend(md.validation_report)
    report.extend(md.c0_consistency())
    _, cond_records = md.conductor()
    report.extend(cond_records)
    return _emit(report, args.json)


def cmd_galois(args) -> int:
    if args.samples < 1:
        raise CliError("--samples must be at least 1")
    md, model_id = _resolve_model(args)
    report = _base_report(md, model_id, args)
    n = md.conductor_n()
    try:
        ls = [int(x) for x in args.l.split(",") if x.strip()]
    except ValueError as exc:
        raise CliError(f"malformed --l {args.l!r}: {exc}")
    for l in ls:
        if math.gcd(l, n) != 1:
            report.records.append(
                notice("galois", "skipped_noncoprime",
                       f"l={l} shares a factor with the conductor {n}", l=l)
            )
            continue
        report.extend(verify_galois_identities(md, l))
    rng = Lcg(args.seed)
    drawn = []
    while len(drawn) < args.samples:
        m = random_word_matrix(rng)
        if math.gcd(m.d, n) == 1:
            drawn.append(m)
    report.records.append(first_failure(
        "galois", "kernel_criterion_equivalence",
        (f"matrix {m.to_obj()}" for m in drawn
         for res in [kernel_test(md, m)]
         if res.direct != res.criterion or not res.sigma_factorization),
        samples=len(drawn),
    ))
    report.extend(congruence_suite(md, args.samples, args.seed, tuple(ls)))
    return _emit(report, args.json)


def _format_matrix(mat, approx: int | None) -> list[list]:
    if approx is None:
        return [[x.to_obj() for x in row] for row in mat]
    out = []
    for row in mat:
        line = []
        for x in row:
            try:
                z = embed_complex(x, approx)
            except ValueError as exc:
                raise CliError(str(exc))
            line.append(f"{z.real:.{approx}g}{z.imag:+.{approx}g}i")
        out.append(line)
    return out


def cmd_lambda(args) -> int:
    md, model_id = _resolve_model(args)
    try:
        r = Fraction(args.r)
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(f"malformed rational {args.r!r}: {exc}")
    mat = lambda_hat(md, r) if args.hat else lambda_mat(md, r)
    report = _base_report(md, model_id, args)
    report.config["r"] = r
    report.config["hat"] = args.hat
    report.extend(verify_lambda_identities(md, r))
    dump = _format_matrix(mat, args.approx)
    if args.json:
        obj = json.loads(report.to_json())
        obj["matrix"] = dump
        print(json.dumps(obj, sort_keys=True, separators=(",", ":")))
        return 0 if report.all_passed() else CHECK_FAILURE
    for line in dump:
        print("  ".join(str(x) for x in line))
    print(report.human_text())
    return 0 if report.all_passed() else CHECK_FAILURE


def cmd_orbifold(args) -> int:
    md, model_id = _resolve_model(args)
    if args.order < 2:
        raise CliError("--order must be at least 2")
    selected = set(args.checks.split(",")) if args.checks else {
        "consistency", "charges", "index", "multiplicities"
    }
    unknown = selected - {"consistency", "charges", "index", "multiplicities"}
    if unknown:
        raise CliError(f"unknown checks: {sorted(unknown)}")
    sl = OrbSlice(md, args.order)
    report = _base_report(md, model_id, args)
    report.config["order"] = args.order
    if "consistency" in selected:
        report.extend(consistency_report(sl))
    if "charges" in selected:
        report.extend(charge_invariants(sl))
    if "index" in selected:
        report.extend(mu_scaling_check(sl))
    if "multiplicities" in selected:
        report.extend(multiplicity_report(md, sample_seed=args.seed))
    return _emit(report, args.json)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: `parse_args` leaves it as it
    was, and each call fills a new namespace from the defaults."""
    parser = argparse.ArgumentParser(
        prog="modata",
        description="exact verification suites for modular data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("source", nargs="?", help="model file (JSON)")
        p.add_argument("--model", help="builtin model NAME[:PARAM]")
        p.add_argument("--c0", help="override the c0 representative")
        p.add_argument("--tau2", type=int, help="distinguished label index")
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--json", action="store_true",
                       help="canonical machine-readable report")

    p = sub.add_parser("verify", help="axioms, phase class, conductor")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("galois", help="Frobenius and congruence suites")
    common(p)
    p.add_argument("--l", default="5,7,11", help="comma-separated indices")
    p.add_argument("--samples", type=int, default=100)
    p.set_defaults(func=cmd_galois)

    p = sub.add_parser("lambda", help="fractional modular matrices")
    common(p)
    p.add_argument("--r", required=True,
                   help="rational argument k/n (use --r=-1/3 for negatives)")
    p.add_argument("--hat", action="store_true",
                   help="apply the scalar phase correction")
    p.add_argument("--approx", type=int, default=None,
                   help="print decimal approximations with this many digits")
    p.set_defaults(func=cmd_lambda)

    p = sub.add_parser("orbifold", help="cyclic orbifold sector checks")
    common(p)
    p.add_argument("--order", type=int, required=True, help="cycle order N")
    p.add_argument("--checks", default=None,
                   help="subset of consistency,charges,index,multiplicities")
    p.set_defaults(func=cmd_orbifold)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, OrderCapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return PARSE_ERROR
    except AxiomViolationError as exc:
        for rec in exc.report:
            print(rec.human_line(), file=sys.stderr)
        return CHECK_FAILURE
    except ModataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CHECK_FAILURE


if __name__ == "__main__":
    sys.exit(main())
