"""Command-line interface.

Subcommands: certify, scan, witness, remark-check, cross-validate.
Exit codes: 0 success (including Inconclusive verdicts), 1 usage or
parameter errors, 2 internal invariant violations (including failed asserts).
"""

import argparse
import sys

from .errors import InternalInvariantError, ParameterError
from .hodge_report import certify_product, certify_single
from .params import classify, validate
from .scanner import (
    FORMATS,
    METHODS,
    ScanSpec,
    atomic_write,
    method_witnesses,
    render_json,
    report_envelope,
    run_cross_validate,
    run_remark_check,
    run_scan,
    to_report,
)


def _primes(text: str) -> tuple[int, ...]:
    """The argparse type of --primes: a non-empty comma-separated list of integers."""
    try:
        primes = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        primes = ()
    if not primes:
        raise argparse.ArgumentTypeError(f"not a comma-separated list of integers: {text!r}")
    return primes


_POINT = (("--n", int, "degree of f"), ("--p", int, "prime p"), ("--r", int, "exponent r, q = p^r"))
_GRID = (
    ("--n-min", int, "smallest degree"),
    ("--n-max", int, "largest degree"),
    ("--primes", _primes, "comma-separated primes"),
    ("--r-max", int, "largest exponent r"),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hodgecert", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, text: str, required: tuple) -> argparse.ArgumentParser:
        """A subcommand with its required (flag, type, help) options and --out."""
        sub = subs.add_parser(name, help=text)
        for flag, kind, flag_help in required:
            sub.add_argument(flag, type=kind, required=True, help=flag_help)
        sub.add_argument("--out", help="write the report here, atomically, instead of stdout")
        sub.set_defaults(func=func)
        return sub

    cert = command("certify", cmd_certify, "certify a single parameter point", _POINT)
    cert.add_argument("--product", action="store_true", help="certify all levels up to r")
    scan = command("scan", cmd_scan, "scan a parameter grid", _GRID)
    scan.add_argument("--method", choices=METHODS, default="both")
    scan.add_argument("--format", choices=FORMATS, default="json")
    wit = command("witness", cmd_witness, "compute witnesses for one parameter point", _POINT)
    wit.add_argument("--method", choices=METHODS, default="both")
    remark = (("--n-max", int, "check odd n up to this bound"),)
    command("remark-check", cmd_remark_check, "verify the q = 4 precondition pattern", remark)
    cross = "check constructive witnesses against the oracle"
    command("cross-validate", cmd_cross_validate, cross, _GRID)
    return parser


def _spec(args: argparse.Namespace, **extra) -> ScanSpec:
    return ScanSpec(args.n_min, args.n_max, args.primes, args.r_max, **extra)


def cmd_certify(args: argparse.Namespace) -> bytes:
    params = validate(args.n, args.p, args.r)
    if args.product:
        key, cert = "product_certificate", certify_product(params)
    else:
        key, cert = "certificate", certify_single(params)
    return render_json(report_envelope(key, to_report(cert)))


def cmd_scan(args: argparse.Namespace) -> bytes:
    _rows, payload = run_scan(_spec(args, format=args.format), method=args.method)
    return payload


def cmd_witness(args: argparse.Namespace) -> bytes:
    params = validate(args.n, args.p, args.r)
    conds = classify(params)
    constructive, brute = method_witnesses(params, args.method)
    if args.method == "brute":
        constructive = None
    body = {
        **to_report(params),
        "witness_prime_applicable": conds.witness_prime_applicable,
        "witness_q_applicable": conds.witness_q_applicable,
        "constructive": to_report(constructive),
        "brute_force": to_report(brute),
    }
    return render_json(report_envelope("witness_report", body))


def cmd_remark_check(args: argparse.Namespace) -> bytes:
    return render_json(report_envelope("remark_check", run_remark_check(args.n_max)))


def cmd_cross_validate(args: argparse.Namespace) -> bytes:
    return render_json(report_envelope("cross_validation", run_cross_validate(_spec(args))))


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error; the contract reserves 2 for bugs
        return 1 if exc.code else 0
    try:
        report = args.func(args)
        # The one place a report is written: stdout, or the --out file atomically.
        if args.out is None:
            sys.stdout.buffer.write(report)
            sys.stdout.buffer.flush()
        else:
            atomic_write(args.out, report)
        return 0
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (InternalInvariantError, AssertionError) as exc:
        # A failed assert checks a theorem invariant too: a bug, not bad input.
        print(f"internal invariant violation: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    raise SystemExit(main())
