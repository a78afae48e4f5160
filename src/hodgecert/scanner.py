"""Grid scanning and deterministic report serialization.

Scan rows have one field table, CSV_COLUMNS, and are built in sorted
(p, r, n) order.  A row builds no certificate: it takes its verdict from
verdict_from_witness, the rule certificates use, and its dimensions from
ledger.  Scan columns have fixed types, so each writer fills one row
template per row, formatting by column.  Every other report is its
dataclass's fields in declaration order, written by to_report.  No report
carries a timestamp, and atomic_write never leaves a partial file behind.
"""

import io
import json
import os
import stat
from collections import namedtuple
from dataclasses import dataclass, fields, is_dataclass
from enum import Enum
from json.encoder import encode_basestring_ascii

from ._version import __version__
from .errors import InternalInvariantError, ParameterError
from .hodge_report import (
    Verdict,
    certify_single,  # noqa: F401  (perfbench's tracer test reads scanner.certify_single)
    ledger,
    verdict_from_witness,
)
from .params import (
    MAX_SUPPORTED,
    ConditionStatus,
    CurveParams,
    classify,
    require_bounded,
    require_prime,
    validate,
)
from .witness import (
    FLOOR_ONE_BRANCHES,
    MAX_ORACLE_Q,
    Witness,
    brute_force_witness,
    constructive_witness,
    constructive_witness_q,
)

__all__ = [
    "CSV_COLUMNS",
    "SCHEMA_VERSION",
    "ScanRow",
    "ScanSpec",
    "atomic_write",
    "build_rows",
    "compute_row",
    "render_json",
    "report_envelope",
    "row_to_dict",
    "rows_to_csv_bytes",
    "rows_to_json_bytes",
    "run_cross_validate",
    "run_remark_check",
    "run_scan",
    "to_report",
]

SCHEMA_VERSION = "1"
TOOL = f"hodgecert {__version__}"

FORMATS = ("json", "csv")
METHODS = ("constructive", "brute", "both")

CSV_COLUMNS = (
    "n",
    "p",
    "r",
    "q",
    "holds_A",
    "holds_B",
    "holds_C",
    "witness_constructive_i",
    "witness_constructive_branch",
    "witness_bruteforce_i",
    "verdict",
    "dim_abelian_variety",
    "dim_unitary",
    "dim_center",
    "dim_semisimple",
)

# One scan row: its fields are the CSV columns, in report order.
ScanRow = namedtuple("ScanRow", CSV_COLUMNS)


@dataclass(frozen=True)
class ScanSpec:
    """Parameters of a grid scan over primes x exponents x degrees."""

    n_min: int
    n_max: int
    primes: tuple[int, ...]
    r_max: int
    output_path: str | None = None
    format: str = "json"

    def __post_init__(self) -> None:
        require_bounded("n_max", self.n_max)
        require_bounded("n_min", self.n_min)
        require_bounded("r_max", self.r_max)
        if self.n_min > self.n_max:
            raise ParameterError(f"empty degree range [{self.n_min}, {self.n_max}]")
        if not self.primes:
            raise ParameterError("no primes given")
        for p in self.primes:
            require_prime(p)
        if self.r_max < 1:
            raise ParameterError(f"r_max = {self.r_max}; need at least 1")
        if self.format not in FORMATS:
            raise ParameterError(f"unknown format {self.format!r}")


# ---------- serialization ----------


def to_report(obj):
    """A report dataclass as a dict of its fields in declaration order, the
    one field table of every certificate, witness and condition report.  A
    CurveParams field is flattened to n, p, r, q; enums are written by value,
    tuples as lists, nested dataclasses as reports, anything else as it is."""
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, tuple):
        return [to_report(v) for v in obj]
    if not is_dataclass(obj):
        return obj
    report = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, CurveParams):
            report.update(to_report(value))
        else:
            report[f.name] = to_report(value)
    return report


def row_to_dict(
    params: CurveParams,
    conds: ConditionStatus,
    verdict: Verdict | None,
    constructive: Witness | None,
    brute: Witness | None,
) -> ScanRow:
    """One scan row.  Returns a ScanRow, not a dict, despite the name, which
    perfbench's tracer rebinds; verdict is None at q = 2, where the row is
    OutOfScope and has no ledger."""
    if verdict is None:
        verdict, dims = Verdict.OUT_OF_SCOPE, (None,) * 4
    else:
        dims = ledger(params)
    return ScanRow(
        params.n,
        params.p,
        params.r,
        params.q,
        conds.A,
        conds.B,
        conds.C,
        None if constructive is None else constructive.i,
        None if constructive is None else constructive.branch.value,
        None if brute is None else brute.i,
        verdict.value,
        *dims,
    )


def render_json(payload: dict) -> bytes:
    return (json.dumps(payload, indent=2) + "\n").encode("utf-8")


def report_envelope(key: str, value) -> dict:
    return {"schema_version": SCHEMA_VERSION, "tool": TOOL, key: value}


# Scan columns have fixed types: n, p, r, q are ints; holds_* are bools;
# witness_constructive_i and _branch are both None or an int and a Branch
# value; witness_bruteforce_i is None or an int; verdict is a Verdict value;
# the four dims are all None (q = 2) or all ints.  Branch and Verdict values
# need no CSV quoting and no JSON escaping, so each writer fills one row
# template per row and formats by column.
_BOOL = ("false", "true")


def rows_to_csv_bytes(rows: list[ScanRow]) -> bytes:
    """Exactly what csv.writer writes for the rows, with None as an empty cell
    and bools as true/false, encoded as it is written, so no full-size str is
    ever held."""
    row_template = ",".join(["%s"] * len(CSV_COLUMNS)) + "\n"
    no_ledger = ("",) * 4
    buf = io.BytesIO()
    out = io.TextIOWrapper(buf, encoding="utf-8", newline="")
    out.write(f"# tool: {TOOL}, schema: {SCHEMA_VERSION}\n")
    out.write(",".join(CSV_COLUMNS) + "\n")
    for n, p, r, q, a, b, c, wi, branch, bi, verdict, da, du, dc, ds in rows:
        out.write(row_template % (
            n, p, r, q, _BOOL[a], _BOOL[b], _BOOL[c],
            *(("", "") if wi is None else (wi, branch)),
            "" if bi is None else bi,
            verdict,
            *(no_ledger if da is None else (da, du, dc, ds)),
        ))
    out.flush()
    return buf.getvalue()


# The scan envelope around its rows array, as render_json lays it out.
_ROWS_HEAD, _, _ROWS_TAIL = (
    render_json(report_envelope("rows", [])).decode("ascii").rpartition("[]")
)


def _json_fields(keys, pad: str) -> str:
    """The object json.dumps(indent=2) writes at indent pad, one %s per key;
    the Branch and Verdict keys get "%s", their values written bare."""
    quoted = ("branch", "verdict")
    fields = ",\n".join(
        f"{pad}  {encode_basestring_ascii(k)}: " + ('"%s"' if k in quoted else "%s") for k in keys
    )
    return f"{{\n{fields}\n{pad}}}"


# In JSON, columns 7-8 nest as witness_constructive {"i", "branch"} (null
# when there is no witness) and column 9 drops its "_i".
_WITNESS_KEY = CSV_COLUMNS[7].rpartition("_")[0]
_WITNESS_TEMPLATE = _json_fields([c.rpartition("_")[2] for c in CSV_COLUMNS[7:9]], "      ")
_ROW_TEMPLATE = "    " + _json_fields(
    (*CSV_COLUMNS[:7], _WITNESS_KEY, CSV_COLUMNS[9].rpartition("_")[0], *CSV_COLUMNS[10:]),
    "    ",
)


def rows_to_json_bytes(rows: list[ScanRow]) -> bytes:
    """Exactly render_json(report_envelope("rows", ...)) of the rows as JSON
    objects (witness columns nested as above), rendered one row at a time and
    encoded as it is written, so neither the encoder's chunk list nor a
    full-size str is ever held."""
    no_ledger = ("null",) * 4
    buf = io.BytesIO()
    out = io.TextIOWrapper(buf, encoding="utf-8", newline="")
    out.write(_ROWS_HEAD)
    if rows:
        sep = "[\n"
        for n, p, r, q, a, b, c, wi, branch, bi, verdict, da, du, dc, ds in rows:
            out.write(sep)
            out.write(_ROW_TEMPLATE % (
                n, p, r, q, _BOOL[a], _BOOL[b], _BOOL[c],
                "null" if wi is None else _WITNESS_TEMPLATE % (wi, branch),
                "null" if bi is None else bi,
                verdict,
                *(no_ledger if da is None else (da, du, dc, ds)),
            ))
            sep = ",\n"
        out.write("\n  ]")
    else:
        out.write("[]")
    out.write(_ROWS_TAIL)
    out.flush()
    return buf.getvalue()


def atomic_write(path: str, data: bytes) -> None:
    """Write via a temp file in the target directory, then rename into place.

    A symlink is written through, as open(path, "wb") would: the file it
    points to is replaced and the link is kept.  A FIFO or device is
    written in place, as open would, not replaced.  The file ends up with
    the mode open would leave: an existing target keeps its permission
    bits, a new one gets 0o666 less the umask.
    """
    try:
        mode = os.stat(path).st_mode  # follows symlinks
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(path, "wb") as fh:
            fh.write(data)
        return
    path = os.path.realpath(path)
    tmp = os.path.join(os.path.dirname(path), f".hodgecert-{os.urandom(8).hex()}.tmp")
    # O_EXCL: never reuse a file; mode 0o666 is masked by the umask, as in open().
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        if mode is not None:
            os.chmod(tmp, stat.S_IMODE(mode))
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


# ---------- row building ----------


def _levels(spec: ScanSpec):
    """Yield the grid's (p, r) in sorted order, up to q = p^r <= MAX_SUPPORTED."""
    for p in sorted(set(spec.primes)):
        for r in range(1, spec.r_max + 1):
            if p**r > MAX_SUPPORTED:
                break
            yield p, r


def _grid(spec: ScanSpec):
    """Yield validated params in sorted (p, r, n) order, skipping invalid points."""
    for p, r in _levels(spec):
        for n in range(max(spec.n_min, 4), spec.n_max + 1):
            if n % p == 0:
                continue
            yield validate(n, p, r)


def _check_oracle_bound(spec: ScanSpec, remedy: str) -> None:
    """Refuse, before any work, a grid with a point where brute_force_witness
    would refuse, i.e. one at q > MAX_ORACLE_Q."""
    low = max(spec.n_min, 4)
    for p, r in _levels(spec):
        # Of two consecutive degrees at most one is a multiple of p.
        if p**r > MAX_ORACLE_Q and any(n % p for n in range(low, min(low + 1, spec.n_max) + 1)):
            raise ParameterError(
                f"q = {p}^{r} = {p**r} exceeds the exhaustive oracle bound {MAX_ORACLE_Q}; {remedy}"
            )


def _check_method(method: str) -> None:
    if method not in METHODS:
        raise ParameterError(f"unknown method {method!r}")


def method_witnesses(params: CurveParams, method: str) -> tuple[Witness | None, Witness | None]:
    """(constructive, oracle) witnesses at one point for a --method.  The
    constructive one is always built, as it feeds the verdict; the oracle
    runs unless method is "constructive", and must find a witness exactly
    where a route applies (else InternalInvariantError)."""
    _check_method(method)
    built = constructive_witness(params)
    brute = None
    if method != "constructive":
        brute = brute_force_witness(params)
        if (brute is None) != (built is None):
            where = f"n={params.n}, p={params.p}, r={params.r}"
            found = "no witness" if brute is None else "a witness where no route applies"
            raise InternalInvariantError(f"oracle found {found} at {where}")
    return built, brute


def compute_row(params: CurveParams, method: str = "both") -> ScanRow:
    """One scan row; both witness routes verify what they return, and the
    oracle must agree with the routes.  The one constructive witness feeds the
    verdict, by the rule certify uses, conditions-vs-witness check included;
    method picks the columns."""
    conds = classify(params)
    built, brute = method_witnesses(params, method)
    # No verdict at q = 2: the dimension ledger is undefined there.
    verdict = None if params.q == 2 else verdict_from_witness(params, conds, built)
    return row_to_dict(params, conds, verdict, None if method == "brute" else built, brute)


def build_rows(spec: ScanSpec, method: str = "both") -> list[ScanRow]:
    _check_method(method)  # also on an empty grid
    if method != "constructive":
        _check_oracle_bound(spec, "scan skips the oracle with --method constructive")
    return [compute_row(params, method) for params in _grid(spec)]


def run_scan(spec: ScanSpec, method: str = "both") -> tuple[list[ScanRow], bytes]:
    """Build all rows, render them, and write the report if a path is set.

    Identical specs always produce identical bytes.
    """
    rows = build_rows(spec, method)
    payload = rows_to_csv_bytes(rows) if spec.format == "csv" else rows_to_json_bytes(rows)
    if spec.output_path is not None:
        atomic_write(spec.output_path, payload)
    return rows, payload


# ---------- equivalence check at p = 2, q = 4 ----------


def run_remark_check(n_max: int) -> dict:
    """Prove that at (p, q) = (2, 4) the general witness route applies exactly
    for odd n congruent to 7 modulo 8, and list every such n <= n_max.  There
    the route applies iff (n - 1) % 4 != 0 and n % 8 != 3, which reads n only
    modulo 8, so the odd n of one period, 5, 7, 9, 11, decide every odd n.
    Raises InternalInvariantError with the first counterexample."""
    require_bounded("n_max", n_max)
    if n_max < 9:
        raise ParameterError(f"n_max = {n_max}; need at least 9")
    for n in (5, 7, 9, 11):
        if classify(validate(n, 2, 2)).witness_q_applicable != (n % 8 == 7):
            raise InternalInvariantError(f"counterexample n = {n}")
    matching = list(range(7, n_max + 1, 8))
    return {
        "n_max": n_max,
        "passed": True,
        "matching_count": len(matching),
        "matching": matching,
        "counterexample": None,
    }


# ---------- constructive vs oracle cross-validation ----------


def run_cross_validate(spec: ScanSpec) -> dict:
    """Check constructive routes against the exhaustive oracle on the grid.

    At every point, each constructive route that applies must build a witness
    that verifies, and the oracle must find a witness exactly where a route
    applies, as in scan --method both; the first failure of either raises
    InternalInvariantError.
    """
    _check_oracle_bound(spec, "cross-validate runs the oracle at every point: lower --r-max")
    report = {
        "points": 0,
        "prime_construction_checked": 0,
        "general_construction_checked": 0,
        "oracle_agreements": 0,
        "disagreements": 0,
    }
    for params in _grid(spec):
        conds = classify(params)
        built, _ = method_witnesses(params, "both")
        if conds.witness_q_applicable and built.branch in FLOOR_ONE_BRANCHES:
            # the decision took the odd-prime route; any other witness it built
            # is the prime-power route's, which above 2q is the odd-prime one's
            constructive_witness_q(params)
        report["points"] += 1
        report["prime_construction_checked"] += conds.witness_prime_applicable
        report["general_construction_checked"] += conds.witness_q_applicable
        report["oracle_agreements"] += built is not None
    return report
