import csv
import hashlib
import io
import json
import os
from operator import attrgetter
from pathlib import Path

import pytest

from hodgecert import (
    CSV_COLUMNS,
    NotPrimeError,
    OracleDisagreementError,
    ParameterError,
    ScanSpec,
    atomic_write,
    build_rows,
    certify_single,
    compute_row,
    rows_to_csv_bytes,
    rows_to_json_bytes,
    run_cross_validate,
    run_remark_check,
    run_scan,
    validate,
)
from hodgecert.scanner import render_json, report_envelope

GOLDEN = Path(__file__).parent / "golden"


def as_json(row) -> dict:
    """A scan row as the JSON report writes it, built from the row's own fields."""
    doc = {}
    for key, value in row._asdict().items():
        if key == "witness_constructive_i":
            branch = row.witness_constructive_branch
            doc["witness_constructive"] = None if value is None else {"i": value, "branch": branch}
        elif key == "witness_bruteforce_i":
            doc["witness_bruteforce"] = value
        elif key != "witness_constructive_branch":
            doc[key] = value
    return doc


def json_reference(rows) -> bytes:
    return render_json(report_envelope("rows", [as_json(r) for r in rows]))


def parse_csv(payload: bytes) -> tuple[str, list[str], list[dict]]:
    lines = payload.decode("utf-8").splitlines()
    comment, header_line = lines[0], lines[1]
    reader = csv.DictReader(io.StringIO("\n".join(lines[1:])))
    return comment, header_line.split(","), list(reader)


class TestSpecValidation:
    def test_empty_range(self):
        with pytest.raises(ParameterError):
            ScanSpec(10, 5, (3,), 1)

    def test_bad_prime(self):
        with pytest.raises(NotPrimeError):
            ScanSpec(5, 10, (9,), 1)

    def test_bad_format(self):
        with pytest.raises(ParameterError):
            ScanSpec(5, 10, (3,), 1, format="xml")


class TestRows:
    def test_grid_size_and_order(self):
        rows = build_rows(ScanSpec(5, 20, (3,), 2))
        # 11 degrees coprime to 3 in [5, 20], for each of r = 1, 2
        assert len(rows) == 22
        keys = [(row.p, row.r, row.n) for row in rows]
        assert keys == sorted(keys)

    def test_witness_free_row(self):
        rows = build_rows(ScanSpec(19, 19, (3,), 2))
        row = next(r for r in rows if r.r == 2)
        assert row.witness_constructive_i is None
        assert row.witness_constructive_branch is None
        assert row.witness_bruteforce_i is None
        assert row.verdict == "Inconclusive"
        assert (row.dim_unitary, row.dim_center, row.dim_semisimple) == (972, 3, 969)

    def test_methods_restrict_columns(self):
        spec = ScanSpec(13, 13, (3,), 2)
        only_constructive = build_rows(spec, method="constructive")
        only_brute = build_rows(spec, method="brute")
        assert all(r.witness_bruteforce_i is None for r in only_constructive)
        assert all(r.witness_constructive_i is None for r in only_brute)
        assert all(r.witness_constructive_branch is None for r in only_brute)
        assert any(r.witness_constructive_i is not None for r in only_constructive)
        assert any(r.witness_bruteforce_i is not None for r in only_brute)

    def test_unknown_method(self):
        with pytest.raises(ParameterError):
            build_rows(ScanSpec(5, 6, (3,), 1), method="guess")
        # p = 5 divides every n in the range, so the grid is empty
        empty = ScanSpec(5, 5, (5,), 1)
        assert build_rows(empty) == []
        with pytest.raises(ParameterError):
            build_rows(empty, method="guess")
        with pytest.raises(ParameterError):
            run_scan(empty, method="guess")

    def test_hyperelliptic_rows_out_of_scope(self):
        rows = build_rows(ScanSpec(5, 9, (2,), 1))
        assert [r.n for r in rows] == [5, 7, 9]
        for row in rows:
            assert row.verdict == "OutOfScope"
            assert row.dim_abelian_variety is None
            assert row.dim_unitary is None


class TestRowMatchesCertificate:
    def test_verdict_and_ledger(self):
        fields = ("dim_abelian_variety", "dim_unitary", "dim_center", "dim_semisimple")
        for p in (2, 3, 5, 7):
            for r in (1, 2, 3):
                if p**r == 2:
                    continue
                for n in range(4, 201):
                    if n % p == 0:
                        continue
                    params = validate(n, p, r)
                    row, cert = compute_row(params), certify_single(params)
                    assert row.verdict == cert.verdict.value
                    assert attrgetter(*fields)(row) == attrgetter(*fields)(cert)

    def test_one_construction_per_row(self, monkeypatch):
        import hodgecert.witness

        calls = []
        for name in ("constructive_witness_prime", "constructive_witness_q"):
            original = getattr(hodgecert.witness, name)

            def counted(params, _original=original):
                calls.append(params)
                return _original(params)

            monkeypatch.setattr(hodgecert.witness, name, counted)
        # odd-prime route only, general route only, both routes, no route
        for (n, p, r), builds in (((10, 3, 2), 1), ((31, 3, 2), 1), ((11, 3, 2), 1), ((19, 3, 2), 0)):
            calls.clear()
            compute_row(validate(n, p, r), method="both")
            assert len(calls) == builds


class TestSerialization:
    def test_empty_scan_keeps_header(self):
        # p = 5 divides every n in the range, so the grid is empty
        _rows, payload = run_scan(ScanSpec(5, 5, (5,), 1, format="csv"))
        comment, header, records = parse_csv(payload)
        assert comment.startswith("# tool: hodgecert")
        assert header == list(CSV_COLUMNS)
        assert records == []

    def test_deterministic_bytes(self):
        spec_json = ScanSpec(5, 16, (2, 3), 2)
        spec_csv = ScanSpec(5, 16, (2, 3), 2, format="csv")
        assert run_scan(spec_json)[1] == run_scan(spec_json)[1]
        assert run_scan(spec_csv)[1] == run_scan(spec_csv)[1]

    def test_golden_scans(self):
        # n 4..40, p in {2, 3, 5}, r <= 3: 216 rows, all seven constructive
        # branches and all three verdicts
        _rows, payload = run_scan(ScanSpec(4, 40, (2, 3, 5), 3), method="both")
        assert payload == (GOLDEN / "scan_4_40_p2-3-5_r3.json").read_bytes()
        spec = ScanSpec(4, 40, (2, 3, 5), 3, format="csv")
        _rows, payload = run_scan(spec, method="constructive")
        assert payload == (GOLDEN / "scan_4_40_p2-3-5_r3.csv").read_bytes()

    @pytest.mark.parametrize("method", ["constructive", "brute", "both"])
    def test_json_rows_match_json_dumps(self, method):
        # q = 2 rows have all-null ledgers; brute rows have a null witness_constructive
        rows = build_rows(ScanSpec(4, 300, (2, 3, 5, 7), 4), method)
        assert rows_to_json_bytes(rows) == json_reference(rows)

    def test_json_edge_rows_match_json_dumps(self):
        empty = build_rows(ScanSpec(5, 5, (5,), 1))
        assert b'"rows": []' in rows_to_json_bytes(empty)
        wide = [compute_row(validate(847288609445, 3, 25), "constructive")]
        for rows in (empty, wide):
            assert rows_to_json_bytes(rows) == json_reference(rows)

    def test_benchmark_grid_bytes(self):
        # the benchmark's 33,848-row grid; hashes taken before rows were tuples
        spec = ScanSpec(4, 3000, (2, 3, 5, 7), 4)
        _rows, payload = run_scan(spec, method="both")
        assert hashlib.sha256(payload).hexdigest() == (
            "5ebe6aef9226e530ba107607982b03bb2296f8d6457783b802431e5fb7e940ca"
        )
        spec = ScanSpec(4, 3000, (2, 3, 5, 7), 4, format="csv")
        _rows, payload = run_scan(spec, method="constructive")
        assert hashlib.sha256(payload).hexdigest() == (
            "8ad8e27d26a7e416a4f12d96a50df0a4133c0a895d3cc800753001a8d176f15b"
        )

    def test_json_envelope(self):
        _rows, payload = run_scan(ScanSpec(5, 7, (3,), 1))
        doc = json.loads(payload)
        assert doc["schema_version"] == "1"
        assert doc["tool"].startswith("hodgecert ")
        assert [row["n"] for row in doc["rows"]] == [5, 7]
        assert payload.endswith(b"\n")

    def test_csv_json_agree(self):
        spec = ScanSpec(5, 16, (2, 3), 2)
        rows, json_payload = run_scan(spec)
        _comment, _header, records = parse_csv(rows_to_csv_bytes(rows))
        docs = json.loads(json_payload)["rows"]
        assert len(records) == len(docs) == len(rows)
        plain = ("n", "p", "r", "q", "holds_A", "holds_B", "holds_C", "verdict")
        dims = ("dim_abelian_variety", "dim_unitary", "dim_center", "dim_semisimple")

        def cell(value):
            if value is None:
                return ""
            if isinstance(value, bool):
                return "true" if value else "false"
            return str(value)

        for rec, doc in zip(records, docs):
            wc = doc["witness_constructive"] or {}
            expected = {key: doc[key] for key in plain + dims}
            expected["witness_constructive_i"] = wc.get("i")
            expected["witness_constructive_branch"] = wc.get("branch")
            expected["witness_bruteforce_i"] = doc["witness_bruteforce"]
            assert rec == {key: cell(value) for key, value in expected.items()}

    def test_row_dict_field_order(self):
        row = build_rows(ScanSpec(5, 5, (3,), 1))[0]
        assert row._fields == CSV_COLUMNS
        assert row[:4] == (5, 3, 1, 3)


class TestAtomicWrite:
    def test_writes_file(self, tmp_path):
        target = tmp_path / "out.json"
        atomic_write(str(target), b"{}\n")
        assert target.read_bytes() == b"{}\n"
        assert [f for f in os.listdir(tmp_path) if f.startswith(".hodgecert-")] == []

    def test_interruption_leaves_nothing(self, tmp_path, monkeypatch):
        target = tmp_path / "out.json"

        def boom(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr("hodgecert.scanner.os.replace", boom)
        with pytest.raises(OSError):
            atomic_write(str(target), b"{}\n")
        assert not target.exists()
        assert os.listdir(tmp_path) == []

    def test_scan_writes_payload(self, tmp_path):
        target = tmp_path / "report.csv"
        spec = ScanSpec(5, 10, (3,), 1, output_path=str(target), format="csv")
        _rows, payload = run_scan(spec)
        assert target.read_bytes() == payload


class TestRemarkCheck:
    def test_small(self):
        assert run_remark_check(9)["matching"] == [7]
        assert run_remark_check(15)["matching"] == [7, 15]

    def test_thousand(self):
        report = run_remark_check(1000)
        assert report["passed"] and len(report["matching"]) == 125
        assert all(n % 8 == 7 for n in report["matching"])

    def test_rejects_tiny_bound(self):
        with pytest.raises(ParameterError):
            run_remark_check(8)

    def test_dict(self):
        doc = run_remark_check(15)
        assert doc == {
            "n_max": 15,
            "passed": True,
            "matching_count": 2,
            "matching": [7, 15],
            "counterexample": None,
        }


class TestCrossValidate:
    def test_mixed_grid(self):
        # covers the shifted Bezout point (31, 3, 2) and the power-of-two
        # special point (15, 2, 3)
        report = run_cross_validate(ScanSpec(4, 31, (2, 3), 3))
        assert report["points"] > 50
        assert report["prime_construction_checked"] > 0
        assert report["general_construction_checked"] > 0
        assert 0 < report["oracle_agreements"] <= report["points"]
        assert report["disagreements"] == 0

    def test_oracle_witness_where_no_route_applies(self, monkeypatch):
        import hodgecert.scanner
        from hodgecert.witness import Branch, Witness

        # (19, 3, 2): n = 2q + 1, so no route applies and no witness exists
        def forged(params):
            return Witness(i=1, floor_value=2, branch=Branch.BRUTE_FORCE)

        monkeypatch.setattr(hodgecert.scanner, "brute_force_witness", forged)
        with pytest.raises(OracleDisagreementError, match="no route applies"):
            run_cross_validate(ScanSpec(19, 19, (3,), 2))
