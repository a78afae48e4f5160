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
    certificate_to_dict,
    product_to_dict,
    render_json,
    report_envelope,
    run_cross_validate,
    run_remark_check,
    run_scan,
    witness_to_dict,
)
from .witness import brute_force_witness, constructive_witness


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; the contract reserves 2 for bugs."""

    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _parse_primes(text: str) -> tuple[int, ...]:
    try:
        primes = tuple(int(part) for part in text.split(",") if part.strip() != "")
    except ValueError as exc:
        raise ParameterError(f"bad --primes value {text!r}") from exc
    if not primes:
        raise ParameterError(f"bad --primes value {text!r}")
    return primes


def _emit(payload: bytes, out: str | None) -> None:
    if out is None:
        sys.stdout.buffer.write(payload)
        sys.stdout.buffer.flush()
    else:
        atomic_write(out, payload)


def _add_point_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--n", type=int, required=True, help="degree of f")
    sub.add_argument("--p", type=int, required=True, help="prime p")
    sub.add_argument("--r", type=int, required=True, help="exponent r, q = p^r")


def _add_grid_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--n-min", type=int, required=True, help="smallest degree")
    sub.add_argument("--n-max", type=int, required=True, help="largest degree")
    sub.add_argument("--primes", type=str, required=True, help="comma-separated primes")
    sub.add_argument("--r-max", type=int, required=True, help="largest exponent r")


def build_parser() -> _Parser:
    parser = _Parser(prog="hodgecert", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    cert = subs.add_parser("certify", help="certify a single parameter point")
    _add_point_args(cert)
    cert.add_argument("--product", action="store_true", help="certify all levels up to r")
    cert.add_argument("--out", type=str, default=None, help="write the report here")
    cert.set_defaults(func=cmd_certify)

    scan = subs.add_parser("scan", help="scan a parameter grid")
    _add_grid_args(scan)
    scan.add_argument("--method", choices=METHODS, default="both")
    scan.add_argument("--format", choices=FORMATS, default="json")
    scan.add_argument("--out", type=str, default=None, help="write the report here")
    scan.set_defaults(func=cmd_scan)

    wit = subs.add_parser("witness", help="compute witnesses for one parameter point")
    _add_point_args(wit)
    wit.add_argument("--method", choices=METHODS, default="both")
    wit.add_argument("--out", type=str, default=None, help="write the report here")
    wit.set_defaults(func=cmd_witness)

    rem = subs.add_parser("remark-check", help="verify the q = 4 precondition pattern")
    rem.add_argument("--n-max", type=int, required=True, help="check odd n up to this bound")
    rem.add_argument("--out", type=str, default=None, help="write the report here")
    rem.set_defaults(func=cmd_remark_check)

    cross = subs.add_parser(
        "cross-validate", help="check constructive witnesses against the oracle"
    )
    _add_grid_args(cross)
    cross.add_argument("--out", type=str, default=None, help="write the report here")
    cross.set_defaults(func=cmd_cross_validate)

    return parser


def cmd_certify(args: argparse.Namespace) -> int:
    params = validate(args.n, args.p, args.r)
    if args.product:
        payload = render_json(
            report_envelope("product_certificate", product_to_dict(certify_product(params)))
        )
    else:
        payload = render_json(
            report_envelope("certificate", certificate_to_dict(certify_single(params)))
        )
    _emit(payload, args.out)
    return 0


def cmd_scan(args: argparse.Namespace) -> int:
    spec = ScanSpec(
        n_min=args.n_min,
        n_max=args.n_max,
        primes=_parse_primes(args.primes),
        r_max=args.r_max,
        format=args.format,
    )
    _rows, payload = run_scan(spec, method=args.method)
    _emit(payload, args.out)
    return 0


def cmd_witness(args: argparse.Namespace) -> int:
    params = validate(args.n, args.p, args.r)
    conds = classify(params)
    constructive = constructive_witness(params, conds) if args.method != "brute" else None
    brute = brute_force_witness(params) if args.method in ("brute", "both") else None
    body = {
        "n": params.n,
        "p": params.p,
        "r": params.r,
        "q": params.q,
        "witness_prime_applicable": conds.witness_prime_applicable,
        "witness_q_applicable": conds.witness_q_applicable,
        "constructive": None if constructive is None else witness_to_dict(constructive),
        "brute_force": None if brute is None else witness_to_dict(brute),
    }
    _emit(render_json(report_envelope("witness_report", body)), args.out)
    return 0


def cmd_remark_check(args: argparse.Namespace) -> int:
    report = run_remark_check(args.n_max)
    _emit(render_json(report_envelope("remark_check", report)), args.out)
    return 0


def cmd_cross_validate(args: argparse.Namespace) -> int:
    spec = ScanSpec(
        n_min=args.n_min,
        n_max=args.n_max,
        primes=_parse_primes(args.primes),
        r_max=args.r_max,
    )
    report = run_cross_validate(spec)
    _emit(render_json(report_envelope("cross_validation", report)), args.out)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
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
