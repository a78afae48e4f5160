"""Correctness gates, written with arithmetic of their own.

Nothing here imports hodgecert: every expected value is recomputed from
(n, p, r) with integer arithmetic, so a defect in the code under test
cannot also hide itself here.  Each function returns the list of problems
it found, one entry per failed operation (a scan row, a certificate or a
CLI call).
"""

import csv
import io
import json
from math import gcd

SCAN_FIELDS = (
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
MAX_SUPPORTED = 1 << 40


def is_witness(n: int, p: int, q: int, i: int) -> bool:
    """1 <= i <= q-1, gcd(i, p) = 1 and gcd(floor(n*i/q), n-1) = 1."""
    return 1 <= i <= q - 1 and gcd(i, p) == 1 and gcd(n * i // q, n - 1) == 1


def smallest_witness_below(n: int, p: int, q: int, i: int) -> bool:
    """True iff no admissible i' < i is a witness (so i is the smallest one)."""
    return not any(is_witness(n, p, q, k) for k in range(1, i))


def ledger(n: int, p: int, r: int) -> dict:
    """Dimensions for d = n - 1 over the rationals: u = phi*d^2/2, c = phi/2, ss = u - c."""
    q = p**r
    phi = q // p * (p - 1)
    u = phi * (n - 1) ** 2 // 2
    c = phi // 2
    return {
        "dim_abelian_variety": (n - 1) * phi // 2,
        "dim_unitary": u,
        "dim_center": c,
        "dim_semisimple": u - c,
    }


def conditions(n: int, p: int, q: int) -> tuple[bool, bool, bool]:
    """Conditions A, B, C of the determination criterion."""
    return (q < n < 2 * q, p != 2 and n % q != 1, p == 2 and n % q != 1 and n % (2 * q) != q - 1)


def theorem_applies(n: int, p: int, q: int) -> bool:
    """n > q and one of the conditions A, B, C."""
    return n > q and any(conditions(n, p, q))


# ---------- scans ----------


def grid_points(n_min: int, n_max: int, primes, r_max: int) -> list[tuple[int, int, int]]:
    """Every (n, p, r) a scan must emit, in sorted (p, r, n) order."""
    points = []
    for p in sorted(set(primes)):
        for r in range(1, r_max + 1):
            if p**r > MAX_SUPPORTED:
                break
            points.extend((n, p, r) for n in range(max(n_min, 4), n_max + 1) if n % p != 0)
    return points


def _cell(text: str):
    if text == "":
        return None
    if text in ("true", "false"):
        return text == "true"
    if text.lstrip("-").isdigit():
        return int(text)
    return text


def parse_scan(data: bytes, fmt: str) -> tuple[list[dict], list[str]]:
    """Rows of a scan report as flat dicts keyed by SCAN_FIELDS, and header problems."""
    problems = []
    if fmt == "json":
        doc = json.loads(data)
        if doc.get("schema_version") != "1" or not str(doc.get("tool", "")).startswith("hodgecert "):
            problems.append("bad JSON envelope")
        rows = []
        for obj in doc.get("rows", []):
            wc = obj.get("witness_constructive")
            row = {k: obj.get(k) for k in SCAN_FIELDS if not k.startswith("witness_")}
            row["witness_constructive_i"] = None if wc is None else wc.get("i")
            row["witness_constructive_branch"] = None if wc is None else wc.get("branch")
            row["witness_bruteforce_i"] = obj.get("witness_bruteforce")
            rows.append(row)
        return rows, problems
    lines = data.decode("utf-8").split("\n", 1)
    if not (lines[0].startswith("# tool: hodgecert ") and lines[0].endswith(", schema: 1")):
        problems.append("bad CSV comment line")
    reader = csv.reader(io.StringIO(lines[1] if len(lines) > 1 else ""))
    header = next(reader, None)
    if tuple(header or ()) != SCAN_FIELDS:
        problems.append("bad CSV header")
    rows = [dict(zip(SCAN_FIELDS, (_cell(c) for c in cells))) for cells in reader]
    return rows, problems


def check_scan_row(row: dict, method: str) -> str | None:
    """The first problem with one scan row, or None."""
    n, p, r, q = row["n"], row["p"], row["r"], row["q"]
    if q != p**r:
        return "q != p^r"
    if (row["holds_A"], row["holds_B"], row["holds_C"]) != conditions(n, p, q):
        return "conditions A/B/C"
    wc, wb = row["witness_constructive_i"], row["witness_bruteforce_i"]
    if wc is not None and not is_witness(n, p, q, wc):
        return f"constructive i = {wc} is not a witness"
    if method == "constructive" and wb is not None:
        return "oracle ran under --method constructive"
    if method == "both":
        if wb is not None and not (is_witness(n, p, q, wb) and smallest_witness_below(n, p, q, wb)):
            return f"oracle i = {wb} is not the smallest witness"
        if wb is None and wc is not None:
            return "oracle found nothing where a witness exists"
        if wb is not None and wc is not None and wb > wc:
            return "oracle witness larger than the constructive one"
    if q == 2:
        dims = [row[k] for k in ("dim_abelian_variety", "dim_unitary", "dim_center", "dim_semisimple")]
        if row["verdict"] != "OutOfScope" or dims != [None] * 4:
            return "q = 2 row not OutOfScope"
        return None
    if any(row[k] != v for k, v in ledger(n, p, r).items()):
        return "dimension ledger"
    expected = "Determined" if theorem_applies(n, p, q) else "Inconclusive"
    if row["verdict"] != expected:
        return f"verdict {row['verdict']}, theorem says {expected}"
    if method == "both" and expected == "Determined" and wb is None:
        return "Determined but the oracle found no witness"
    return None


def check_scan(data: bytes, fmt: str, method: str, expected_points) -> list[str]:
    """Problems with a whole scan report against the benchmark's own grid."""
    rows, problems = parse_scan(data, fmt)
    if len(rows) != len(expected_points):
        problems.extend(
            [f"{len(rows)} rows, grid has {len(expected_points)}"]
            * max(1, abs(len(rows) - len(expected_points)))
        )
    for row, point in zip(rows, expected_points):
        try:
            if (row["n"], row["p"], row["r"]) != point:
                problems.append(f"row {row['n'], row['p'], row['r']} where {point} belongs")
                continue
            problem = check_scan_row(row, method)
        except (KeyError, TypeError) as exc:
            problem = f"malformed row: {exc!r}"
        if problem is not None:
            problems.append(f"{point}: {problem}")
    return problems


# ---------- q-sweep ----------


def _check_single(rec: dict, n: int, p: int, r: int, expected: str) -> str | None:
    q = p**r
    if rec["q"] != q:
        return "q != p^r"
    if any(rec[k] != v for k, v in ledger(n, p, r).items()):
        return "dimension ledger"
    if rec["verdict"] != expected:
        return f"verdict {rec['verdict']}, expected {expected}"
    i = rec["i"]
    if expected == "Inconclusive":
        return None if i is None else "witness on an Inconclusive point"
    if i is None or not is_witness(n, p, q, i) or rec["floor_value"] != n * i // q:
        return f"witness i = {i} does not verify"
    return None


def check_qsweep_record(rec: dict) -> str | None:
    """The first problem with one q-sweep certificate, or None."""
    kind, n, p, r = rec["kind"], rec["n"], rec["p"], rec["r"]
    if "error" in rec:
        return rec["error"]
    if kind == "band":
        return _check_single(rec, n, p, r, "Determined")
    if kind == "kq+1":
        return _check_single(rec, n, p, r, "Inconclusive")
    levels = rec["levels"]
    if len(levels) != r:
        return f"{len(levels)} levels, expected {r}"
    for k, lv in enumerate(levels, start=1):
        problem = _check_single(lv, n, p, k, "Determined")
        if problem is not None:
            return f"level {k}: {problem}"
    center = p ** (r - 1) * (p - 1) // 2
    if rec["dim_center_product"] != center:
        return "product center"
    if rec["dim_total"] != center + sum(lv["dim_semisimple"] for lv in levels):
        return "product total"
    return None


def check_qsweep(record: list[dict], points) -> list[str]:
    problems = []
    if [(rec["kind"], rec["n"], rec["p"], rec["r"]) for rec in record] != list(points):
        problems.append("certified points differ from the sweep")
    for rec in record:
        try:
            problem = check_qsweep_record(rec)
        except (KeyError, TypeError) as exc:
            problem = f"malformed certificate: {exc!r}"
        if problem is not None:
            problems.append(f"{rec.get('kind')} n={rec.get('n')} p={rec.get('p')} r={rec.get('r')}: {problem}")
    return problems


# ---------- CLI ----------


def _check_witness_report(text: str) -> str | None:
    doc = json.loads(text)
    body = doc["witness_report"]
    n, p, r, q = body["n"], body["p"], body["r"], body["q"]
    if q != p**r:
        return "q != p^r"
    cons, brute = body["constructive"], body["brute_force"]
    if cons is not None and not is_witness(n, p, q, cons["i"]):
        return f"constructive i = {cons['i']} is not a witness"
    if brute is None:
        return "oracle found nothing" if cons is not None else None
    if not (is_witness(n, p, q, brute["i"]) and smallest_witness_below(n, p, q, brute["i"])):
        return f"oracle i = {brute['i']} is not the smallest witness"
    return None


def check_cli_call(rec: dict, goldens: dict) -> str | None:
    """The first problem with one CLI call, or None.  goldens maps args to bytes."""
    if rec["exit"] != 0:
        return f"exit code {rec['exit']}"
    out = rec["stdout"].encode("utf-8")
    golden = goldens.get(tuple(rec["args"]))
    if golden is not None:
        return None if out == golden else "stdout differs from the golden file"
    try:
        return _check_witness_report(rec["stdout"])
    except (ValueError, KeyError, TypeError) as exc:
        return f"malformed report: {exc!r}"


def check_cli(record: list[dict], goldens: dict) -> list[str]:
    problems = []
    for rec in record:
        problem = check_cli_call(rec, goldens)
        if problem is not None:
            problems.append(f"{' '.join(rec['args'])}: {problem}")
    return problems
