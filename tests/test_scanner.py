import csv
import dataclasses
import hashlib
import io
import json
import os
import time
from operator import attrgetter
from pathlib import Path

import pytest

from hodgecert import (
    CSV_COLUMNS,
    InternalInvariantError,
    ParameterError,
    ScanSpec,
    Verdict,
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
from hodgecert.scanner import SCHEMA_VERSION, TOOL, render_json, report_envelope
from hodgecert.witness import Branch, Witness

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


def csv_reference(rows) -> bytes:
    """The CSV scan report as csv.writer writes it: None as an empty cell,
    bools as true/false."""
    text = io.StringIO()
    text.write(f"# tool: {TOOL}, schema: {SCHEMA_VERSION}\n")
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow([str(v).lower() if type(v) is bool else v for v in row])
    return text.getvalue().encode("utf-8")


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
        with pytest.raises(ParameterError, match="p = 9 is not prime"):
            ScanSpec(5, 10, (9,), 1)

    def test_no_primes(self):
        # the CLI's --primes parser refuses an empty list first; a library caller reaches this
        with pytest.raises(ParameterError, match="no primes given"):
            ScanSpec(5, 9, (), 1)

    def test_refuses_prime_above_2_40(self):
        # the smallest prime above 2^40: the whole grid is refused
        with pytest.raises(ParameterError, match="p = 1099511627791 exceeds the supported bound"):
            ScanSpec(4, 10, (3, 1099511627791), 1)

    def test_refuses_n_max_above_2_40_at_once(self):
        start = time.monotonic()
        with pytest.raises(ParameterError, match="n_max = 1099511627777 exceeds the"):
            ScanSpec(4, 2**40 + 1, (3,), 1)
        assert time.monotonic() - start < 1.0
        # 3 divides 2^40 - 1, so the grid holds n = 2^40 - 2 and 2^40
        last = build_rows(ScanSpec(2**40 - 2, 2**40, (3,), 1), "constructive")
        assert [row.n for row in last] == [2**40 - 2, 2**40]

    def test_bad_format(self):
        with pytest.raises(ParameterError):
            ScanSpec(5, 10, (3,), 1, format="xml")

    # a float or a bool compares equal to an int; each is refused up front
    @pytest.mark.parametrize("kind", [float, bool, str])
    @pytest.mark.parametrize("name", ["n_min", "n_max", "p", "r_max"])
    def test_refuses_non_int(self, name, kind):
        args = {"n_min": 4, "n_max": 10, "p": 3, "r_max": 1}
        args[name] = kind(args[name])
        with pytest.raises(ParameterError, match=f"^{name} must be an int; got {kind.__name__}$"):
            ScanSpec(args["n_min"], args["n_max"], (args["p"],), args["r_max"])


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


class TestOracleAgreement:
    @pytest.mark.parametrize("method", ["brute", "both"])
    def test_forged_oracle_raises(self, method, monkeypatch):
        import hodgecert.scanner

        # (5, 3, 1): a route applies; (19, 3, 2): n = 2q + 1, no route applies
        monkeypatch.setattr(hodgecert.scanner, "brute_force_witness", lambda params: None)
        with pytest.raises(InternalInvariantError, match="oracle found no witness at n=5"):
            compute_row(validate(5, 3, 1), method)
        forged = Witness(i=1, floor_value=2, branch=Branch.BRUTE_FORCE)
        monkeypatch.setattr(hodgecert.scanner, "brute_force_witness", lambda params: forged)
        with pytest.raises(InternalInvariantError, match="no route applies at n=19"):
            compute_row(validate(19, 3, 2), method)


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

    def test_conditions_disagreeing_with_witness_raise(self, monkeypatch):
        import hodgecert.scanner

        # the row takes its verdict from the rule certify uses, so it keeps the
        # conditions-vs-witness check: (5, 3, 1) has a witness, (19, 3, 2) none
        real = hodgecert.scanner.classify

        def flipped(params):
            conds = real(params)
            return dataclasses.replace(conds, theorem_applicable=not conds.theorem_applicable)

        monkeypatch.setattr(hodgecert.scanner, "classify", flipped)
        for point in ((5, 3, 1), (19, 3, 2)):
            for method in ("constructive", "brute", "both"):
                with pytest.raises(InternalInvariantError, match="conditions and witness disagree"):
                    compute_row(validate(*point), method)

    def test_one_construction_per_row(self, monkeypatch):
        import hodgecert.witness

        calls = []
        for name in ("constructive_witness_prime", "constructive_witness_q"):
            original = getattr(hodgecert.witness, name)

            def counted(params, _original=original, _name=name):
                w = _original(params)
                if w is not None:  # a builder returns None off its domain
                    calls.append(_name)
                return w

            monkeypatch.setattr(hodgecert.witness, name, counted)
        # builds, not calls: odd-prime route only, general route only, both
        # routes below 2q, both routes above 2q (where the odd-prime route's
        # witness is the prime-power one's), no route
        for point, builds in (
            ((10, 3, 2), ["constructive_witness_prime"]),
            ((31, 3, 2), ["constructive_witness_q"]),
            ((11, 3, 2), ["constructive_witness_prime"]),
            ((23, 3, 2), ["constructive_witness_q"]),
            ((19, 3, 2), []),
        ):
            calls.clear()
            compute_row(validate(*point), method="both")
            assert calls == builds, point


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

    @pytest.mark.parametrize("method", ["constructive", "brute", "both"])
    def test_csv_rows_match_csv_writer(self, method):
        rows = build_rows(ScanSpec(4, 300, (2, 3, 5, 7), 4), method)
        assert rows_to_csv_bytes(rows) == csv_reference(rows)

    def test_enum_values_are_written_bare(self):
        # the writers' row templates put Branch and Verdict values in as they are
        for value in [b.value for b in Branch] + [v.value for v in Verdict]:
            line = io.StringIO()
            csv.writer(line, lineterminator="\n").writerow(["x", value])
            assert line.getvalue() == f"x,{value}\n"
            assert json.dumps(value) == f'"{value}"'

    def test_rows_without_optional_columns_match_reference_writers(self):
        optional = (7, 8, 9, 11, 12, 13, 14)
        # q = 2 has no witness and no ledger; (19, 3, 2) under --method brute
        # has no witness but a ledger; (13, 3, 2) under brute only an oracle witness
        bare = compute_row(validate(7, 2, 1), "brute")
        assert [bare[k] for k in optional] == [None] * 7
        rows = [
            bare,
            compute_row(validate(7, 2, 1), "both"),
            compute_row(validate(19, 3, 2), "brute"),
            compute_row(validate(13, 3, 2), "brute"),
        ]
        assert rows[2][7:10] == (None,) * 3 and rows[3][7:9] == (None,) * 2
        for k in range(len(rows) + 1):
            assert rows_to_csv_bytes(rows[:k]) == csv_reference(rows[:k])
            assert rows_to_json_bytes(rows[:k]) == json_reference(rows[:k])

    def test_json_edge_rows_match_json_dumps(self):
        empty = build_rows(ScanSpec(5, 5, (5,), 1))
        assert b'"rows": []' in rows_to_json_bytes(empty)
        wide = [compute_row(validate(847288609445, 3, 25), "constructive")]
        for rows in (empty, wide):
            assert rows_to_json_bytes(rows) == json_reference(rows)

    def test_benchmark_grid_bytes(self):
        # the benchmark's 33,848-row grid, all three methods in both formats; the
        # both/JSON and constructive/CSV hashes predate tuple rows, the other four
        # predate the builders writing floors as n * i // q
        expected = {
            "constructive": (
                "5b368d95388450a157e5c8294c4c0771d27351c8253981e1392a1e941a980cf2",
                "8ad8e27d26a7e416a4f12d96a50df0a4133c0a895d3cc800753001a8d176f15b",
            ),
            "brute": (
                "7963033a32c65a0d294726a6b21a76ba8cb5663b66a0c319c7613a287eb7d4bf",
                "61555e19b9f04785f4d2a0ccd5bf4532ab3e26f47bfae3d1898a8828cc84f79c",
            ),
            "both": (
                "5ebe6aef9226e530ba107607982b03bb2296f8d6457783b802431e5fb7e940ca",
                "af65518cf16c801a0d5575a18322aa66a984ce5ba180deb1d47d216316e6dbcd",
            ),
        }
        spec = ScanSpec(4, 3000, (2, 3, 5, 7), 4)
        for method, (json_sha, csv_sha) in expected.items():
            rows = build_rows(spec, method)
            assert len(rows) == 33848
            assert hashlib.sha256(rows_to_json_bytes(rows)).hexdigest() == json_sha, method
            assert hashlib.sha256(rows_to_csv_bytes(rows)).hexdigest() == csv_sha, method

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

    def test_new_file_mode_follows_umask(self, tmp_path):
        target = tmp_path / "out.json"
        old = os.umask(0o022)
        try:
            atomic_write(str(target), b"{}\n")
        finally:
            os.umask(old)
        assert target.stat().st_mode & 0o777 == 0o644

    def test_existing_file_keeps_mode(self, tmp_path):
        target = tmp_path / "out.json"
        target.write_bytes(b"old\n")
        target.chmod(0o640)
        atomic_write(str(target), b"{}\n")
        assert target.read_bytes() == b"{}\n"
        assert target.stat().st_mode & 0o777 == 0o640

    def test_existing_file_is_replaced_by_rename(self, tmp_path):
        # temp file and rename, not a rewrite in place: a second hard link
        # keeps the old bytes, and the target is a new inode
        target = tmp_path / "out.json"
        target.write_bytes(b"old\n")
        link = tmp_path / "link.json"
        os.link(target, link)
        old_inode = target.stat().st_ino
        atomic_write(str(target), b"{}\n")
        assert target.read_bytes() == b"{}\n"
        assert link.read_bytes() == b"old\n"
        assert target.stat().st_ino != old_inode
        assert link.stat().st_ino == old_inode
        assert sorted(f.name for f in tmp_path.iterdir()) == ["link.json", "out.json"]

    def test_symlink_is_written_through(self, tmp_path):
        (tmp_path / "real").mkdir()
        target = tmp_path / "real" / "target.json"
        target.write_bytes(b"old\n")
        target.chmod(0o640)
        link = tmp_path / "link.json"
        link.symlink_to(target)
        atomic_write(str(link), b"{}\n")
        assert link.is_symlink()
        assert target.read_bytes() == b"{}\n"
        assert target.stat().st_mode & 0o777 == 0o640
        assert list(tmp_path.rglob(".hodgecert-*.tmp")) == []

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

    def test_refuses_n_max_above_2_40_at_once(self):
        start = time.monotonic()
        with pytest.raises(ParameterError, match="n_max = 1099511627777 exceeds the"):
            run_remark_check(2**40 + 1)
        assert time.monotonic() - start < 1.0

    @pytest.mark.parametrize("kind", [float, bool, str])
    def test_refuses_non_int(self, kind):
        with pytest.raises(ParameterError, match=f"^n_max must be an int; got {kind.__name__}$"):
            run_remark_check(kind(20))

    def test_dict(self):
        doc = run_remark_check(15)
        assert doc == {
            "n_max": 15,
            "passed": True,
            "matching_count": 2,
            "matching": [7, 15],
            "counterexample": None,
        }


class TestOracleBound:
    # p = 2, r_max = 25: the grid has a point at q = 2^25 unless every degree
    # in the range is even or below 4
    @pytest.mark.parametrize(
        "n_min, n_max, refused", [(6, 6, False), (2, 3, False), (5, 5, True), (6, 7, True)]
    )
    def test_refuses_exactly_grids_above_the_bound(self, n_min, n_max, refused):
        spec = ScanSpec(n_min, n_max, (2,), 25)
        for check in (build_rows, run_cross_validate):
            if refused:
                with pytest.raises(ParameterError, match="exhaustive oracle bound"):
                    check(spec)
            else:
                check(spec)


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

    def test_both_routes_built_once_and_oracle_run_once(self, monkeypatch):
        import hodgecert.scanner
        import hodgecert.witness

        calls = []
        for name in ("constructive_witness_prime", "constructive_witness_q", "brute_force_witness"):
            real = getattr(hodgecert.witness, name)

            def counted(params, _real=real, _name=name):
                w = _real(params)
                # every oracle run, but only the builds of a route builder,
                # which returns None off its domain
                if w is not None or _name == "brute_force_witness":
                    calls.append(_name)
                return w

            for module in (hodgecert.witness, hodgecert.scanner):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted)
        # (5, 3, 1): q < n < 2q and q does not divide n - 1, so both routes apply
        report = run_cross_validate(ScanSpec(5, 5, (3,), 1))
        assert sorted(calls) == [
            "brute_force_witness",
            "constructive_witness_prime",
            "constructive_witness_q",
        ]
        assert report == {
            "points": 1,
            "prime_construction_checked": 1,
            "general_construction_checked": 1,
            "oracle_agreements": 1,
            "disagreements": 0,
        }
        # (31, 3, 2): p divides n - 1 above 2q, so only the prime-power route
        # applies; at (31, 3, 1) q divides n - 1, so no route applies
        calls.clear()
        report = run_cross_validate(ScanSpec(31, 31, (3,), 2))
        assert sorted(calls) == [
            "brute_force_witness",
            "brute_force_witness",
            "constructive_witness_q",
        ]
        assert report == {
            "points": 2,
            "prime_construction_checked": 0,
            "general_construction_checked": 1,
            "oracle_agreements": 1,
            "disagreements": 0,
        }
        # (23, 3, 1) and (23, 3, 2): above 2q, p odd and coprime to n - 1, so
        # both routes apply and the odd-prime route's witness is the one the
        # decision builds: one build per point
        calls.clear()
        report = run_cross_validate(ScanSpec(23, 23, (3,), 2))
        assert sorted(calls) == [
            "brute_force_witness",
            "brute_force_witness",
            "constructive_witness_q",
            "constructive_witness_q",
        ]
        assert report == {
            "points": 2,
            "prime_construction_checked": 2,
            "general_construction_checked": 2,
            "oracle_agreements": 2,
            "disagreements": 0,
        }

    def test_oracle_witness_where_no_route_applies(self, monkeypatch):
        import hodgecert.scanner

        # (19, 3, 2): n = 2q + 1, so no route applies and no witness exists
        def forged(params):
            return Witness(i=1, floor_value=2, branch=Branch.BRUTE_FORCE)

        monkeypatch.setattr(hodgecert.scanner, "brute_force_witness", forged)
        with pytest.raises(InternalInvariantError, match="no route applies"):
            run_cross_validate(ScanSpec(19, 19, (3,), 2))

    def test_oracle_finds_no_witness_where_a_route_applies(self, monkeypatch):
        import hodgecert.scanner

        monkeypatch.setattr(hodgecert.scanner, "brute_force_witness", lambda params: None)
        with pytest.raises(InternalInvariantError, match="oracle found no witness at n=5"):
            run_cross_validate(ScanSpec(5, 5, (3,), 1))
