"""Grid scanning and deterministic report serialization.

Every writer here is reproducible: rows are generated in sorted (p, r, n)
order, serialized with a fixed field order and no timestamps, and written
atomically (temp file + rename) so an interrupted run never leaves a
partial report behind.
"""

import csv
import io
import json
import os
import tempfile
from collections import namedtuple
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

from ._version import __version__
from .errors import (
    EquivalenceFailedError,
    ExponentTooSmallError,
    InternalInvariantError,
    NotPrimeError,
    OracleDisagreementError,
    ParameterError,
)
from .hodge_report import (
    HodgeCertificate,
    ProductCertificate,
    Verdict,
    certificate_from_witness,
    certify_single,  # noqa: F401  (perfbench's tracer test reads scanner.certify_single)
)
from .params import MAX_SUPPORTED, ConditionStatus, CurveParams, classify, is_prime, validate
from .witness import (
    Witness,
    brute_force_witness,
    constructive_witness,
    constructive_witness_prime,
    constructive_witness_q,
    verify_witness,
)

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
        if self.n_min > self.n_max:
            raise ParameterError(f"empty degree range [{self.n_min}, {self.n_max}]")
        if not self.primes:
            raise ParameterError("no primes given")
        for p in self.primes:
            if not is_prime(p):
                raise NotPrimeError(f"p = {p} is not prime")
        if self.r_max < 1:
            raise ExponentTooSmallError(f"r_max = {self.r_max}; need at least 1")
        if self.format not in FORMATS:
            raise ParameterError(f"unknown format {self.format!r}")


# ---------- serialization ----------


def witness_to_dict(w: Witness) -> dict:
    return {
        "i": w.i,
        "floor_value": w.floor_value,
        "branch": w.branch.value,
        "determinant_check": w.determinant_check,
        "bezout": (
            None
            if w.bezout is None
            else {"d_prime": w.bezout.d_prime, "q_prime": w.bezout.q_prime, "j": w.bezout.j}
        ),
    }


def conditions_to_dict(cs: ConditionStatus) -> dict:
    return {
        "A": cs.holds_A,
        "B": cs.holds_B,
        "C": cs.holds_C,
        "n_gt_q": cs.n_gt_q,
        "witness_prime_applicable": cs.witness_prime_applicable,
        "witness_prime_case": cs.witness_prime_case,
        "witness_q_applicable": cs.witness_q_applicable,
        "theorem_applicable": cs.theorem_applicable,
        "product_applicable": cs.product_applicable,
    }


def certificate_to_dict(cert: HodgeCertificate) -> dict:
    pr = cert.params
    return {
        "n": pr.n,
        "p": pr.p,
        "r": pr.r,
        "q": pr.q,
        "verdict": cert.verdict.value,
        "assumption": cert.assumption_note,
        "conditions": conditions_to_dict(cert.conditions),
        "witness": None if cert.witness is None else witness_to_dict(cert.witness),
        "dim_abelian_variety": cert.dim_abelian_variety,
        "dim_unitary": cert.dim_unitary,
        "dim_center": cert.dim_center,
        "dim_semisimple": cert.dim_semisimple,
    }


def product_to_dict(cert: ProductCertificate) -> dict:
    pr = cert.params
    return {
        "n": pr.n,
        "p": pr.p,
        "r": pr.r,
        "q": pr.q,
        "dim_center_product": cert.dim_center_product,
        "dim_total": cert.dim_total,
        "isogeny_note": cert.isogeny_note,
        "levels": [certificate_to_dict(lv) for lv in cert.levels],
    }


def row_to_dict(
    params: CurveParams,
    conds: ConditionStatus,
    cert: HodgeCertificate | None,
    constructive: Witness | None,
    brute: Witness | None,
) -> ScanRow:
    """One scan row.  Returns a ScanRow, not a dict, despite the name, which
    perfbench's tracer rebinds; cert is None at q = 2."""
    if cert is None:
        verdict, dims = Verdict.OUT_OF_SCOPE.value, (None,) * 4
    else:
        verdict = cert.verdict.value
        dims = (cert.dim_abelian_variety, cert.dim_unitary, cert.dim_center, cert.dim_semisimple)
    return ScanRow(
        params.n,
        params.p,
        params.r,
        params.q,
        conds.holds_A,
        conds.holds_B,
        conds.holds_C,
        None if constructive is None else constructive.i,
        None if constructive is None else constructive.branch.value,
        None if brute is None else brute.i,
        verdict,
        *dims,
    )


def render_json(payload: dict) -> bytes:
    return (json.dumps(payload, indent=2) + "\n").encode("utf-8")


def report_envelope(key: str, value) -> dict:
    return {"schema_version": SCHEMA_VERSION, "tool": TOOL, key: value}


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if value is True:
        return "true"
    if value is False:
        return "false"
    return str(value)


def rows_to_csv_bytes(rows: list[ScanRow]) -> bytes:
    # Encode as the text is written, so no full-size str copy is ever held.
    buf = io.BytesIO()
    out = io.TextIOWrapper(buf, encoding="utf-8", newline="")
    out.write(f"# tool: {TOOL}, schema: {SCHEMA_VERSION}\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow([_csv_cell(v) for v in row])
    out.flush()
    return buf.getvalue()


# Row values as json.dumps writes them (ensure_ascii=True).  bool is looked
# up by its own type, so True never takes the int entry.
_JSON_SCALARS = {
    int: int.__repr__,
    str: encode_basestring_ascii,
    bool: lambda v: "true" if v else "false",
    type(None): lambda v: "null",
}


# The scan envelope around its rows array, as render_json lays it out.
_ROWS_HEAD, _, _ROWS_TAIL = (
    render_json(report_envelope("rows", [])).decode("ascii").rpartition("[]")
)


def _json_fields(keys, pad: str) -> str:
    """The object json.dumps(indent=2) writes at indent pad, one %s per key."""
    fields = ",\n".join(f"{pad}  {encode_basestring_ascii(k)}: %s" for k in keys)
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
    buf = io.BytesIO()
    out = io.TextIOWrapper(buf, encoding="utf-8", newline="")
    out.write(_ROWS_HEAD)
    if rows:
        sep = "[\n"
        for row in rows:
            cells = [_JSON_SCALARS[type(v)](v) for v in row]
            cells[7:9] = ["null" if row[7] is None else _WITNESS_TEMPLATE % (cells[7], cells[8])]
            out.write(sep)
            out.write(_ROW_TEMPLATE % tuple(cells))
            sep = ",\n"
        out.write("\n  ]")
    else:
        out.write("[]")
    out.write(_ROWS_TAIL)
    out.flush()
    return buf.getvalue()


def atomic_write(path: str, data: bytes) -> None:
    """Write via a temp file in the target directory, then rename into place."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".hodgecert-", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


# ---------- row building ----------


def _grid(spec: ScanSpec):
    """Yield validated params in sorted (p, r, n) order, skipping invalid points."""
    for p in sorted(set(spec.primes)):
        for r in range(1, spec.r_max + 1):
            if p**r > MAX_SUPPORTED:
                break
            for n in range(max(spec.n_min, 4), spec.n_max + 1):
                if n % p == 0:
                    continue
                yield validate(n, p, r)


def _check_method(method: str) -> None:
    if method not in METHODS:
        raise ParameterError(f"unknown method {method!r}")


def compute_row(params: CurveParams, method: str = "both") -> ScanRow:
    """One scan row; every emitted witness is re-verified first.  The one
    constructive witness feeds the certificate; method picks the columns."""
    _check_method(method)
    conds = classify(params)
    built = constructive_witness(params, conds)

    brute = None
    if method in ("brute", "both"):
        brute = brute_force_witness(params)
        if brute is not None and not verify_witness(params, brute):
            raise InternalInvariantError(
                f"oracle witness failed verification at n={params.n}, q={params.q}"
            )

    # No certification at q = 2: the dimension ledger is undefined there.
    cert = None if params.q == 2 else certificate_from_witness(params, conds, built)
    return row_to_dict(params, conds, cert, None if method == "brute" else built, brute)


def build_rows(spec: ScanSpec, method: str = "both") -> list[ScanRow]:
    _check_method(method)  # also on an empty grid
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
    """Verify that at (p, q) = (2, 4) the general witness route applies
    exactly for n congruent to 7 modulo 8, over all odd n in [5, n_max].

    Raises EquivalenceFailedError with the first counterexample.
    """
    if n_max < 9:
        raise ParameterError(f"n_max = {n_max}; need at least 9")
    matching: list[int] = []
    for n in range(5, n_max + 1, 2):
        applicable = classify(validate(n, 2, 2)).witness_q_applicable
        expected = n % 8 == 7
        if applicable != expected:
            raise EquivalenceFailedError(f"counterexample n = {n}")
        if applicable:
            matching.append(n)
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

    At every point where a constructive route applies, its witness must
    verify and the oracle must find some witness; where no route applies,
    the oracle must find none.  Raises OracleDisagreementError at the first
    failure.
    """
    points = 0
    prime_checked = 0
    general_checked = 0
    agreements = 0
    for params in _grid(spec):
        points += 1
        conds = classify(params)
        any_checked = False
        if conds.witness_prime_applicable:
            w = constructive_witness_prime(params)
            if not verify_witness(params, w):
                raise OracleDisagreementError(
                    f"odd-prime construction invalid at n={params.n}, p={params.p}, r={params.r}"
                )
            prime_checked += 1
            any_checked = True
        if conds.witness_q_applicable:
            w = constructive_witness_q(params)
            if not verify_witness(params, w):
                raise OracleDisagreementError(
                    f"general construction invalid at n={params.n}, p={params.p}, r={params.r}"
                )
            general_checked += 1
            any_checked = True
        if any_checked:
            if brute_force_witness(params) is None:
                raise OracleDisagreementError(
                    f"oracle found no witness at n={params.n}, p={params.p}, r={params.r}"
                )
            agreements += 1
        elif brute_force_witness(params) is not None:
            raise OracleDisagreementError(
                f"oracle found a witness where no route applies at "
                f"n={params.n}, p={params.p}, r={params.r}"
            )
    return {
        "points": points,
        "prime_construction_checked": prime_checked,
        "general_construction_checked": general_checked,
        "oracle_agreements": agreements,
        "disagreements": 0,
    }
