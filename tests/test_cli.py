import hashlib
import json
import os
import shlex
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

import hodgecert
from hodgecert.cli import main

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
README = PYPROJECT.with_name("README.md")


def run_json(capsys, argv: list[str]) -> dict:
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return json.loads(captured.out)


class TestCertify:
    def test_determined(self, capsys):
        doc = run_json(capsys, ["certify", "--n", "5", "--p", "3", "--r", "1"])
        cert = doc["certificate"]
        assert cert["verdict"] == "Determined"
        assert cert["dim_abelian_variety"] == 4
        assert (cert["dim_unitary"], cert["dim_center"], cert["dim_semisimple"]) == (16, 1, 15)
        assert cert["witness"]["i"] == 1

    def test_inconclusive_still_exits_zero(self, capsys):
        doc = run_json(capsys, ["certify", "--n", "19", "--p", "3", "--r", "2"])
        assert doc["certificate"]["verdict"] == "Inconclusive"
        assert doc["certificate"]["witness"] is None

    def test_product(self, capsys):
        doc = run_json(capsys, ["certify", "--n", "11", "--p", "3", "--r", "2", "--product"])
        prod = doc["product_certificate"]
        assert prod["dim_center_product"] == 3
        assert prod["dim_total"] == 399
        assert [lv["dim_semisimple"] for lv in prod["levels"]] == [99, 297]

    def test_product_hypotheses_fail(self, capsys):
        assert main(["certify", "--n", "10", "--p", "3", "--r", "2", "--product"]) == 1
        assert "error" in capsys.readouterr().err

    def test_p_divides_n(self, capsys):
        assert main(["certify", "--n", "6", "--p", "3", "--r", "1"]) == 1

    def test_hyperelliptic_rejected(self, capsys):
        assert main(["certify", "--n", "5", "--p", "2", "--r", "1"]) == 1

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no os.mkfifo")
    def test_out_writes_into_a_fifo(self, tmp_path):
        """--out FIFO writes into the pipe, as > FIFO would, and keeps it a FIFO."""
        import stat

        fifo = tmp_path / "report.fifo"
        os.mkfifo(fifo)
        # the read end is open, so opening the write end does not block
        fd = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            assert main(["certify", "--n", "5", "--p", "3", "--r", "1", "--out", str(fifo)]) == 0
            got = os.read(fd, 1 << 16)
        finally:
            os.close(fd)
        golden = Path(__file__).parent / "golden" / "certificate_5_3_1.json"
        assert got == golden.read_bytes()
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)


class TestUsageErrors:
    def test_scan_mode_removed(self, capsys):
        argv = ["scan", "--n-min", "5", "--n-max", "9", "--primes", "3", "--r-max", "1"]
        assert main(argv + ["--mode", "certify"]) == 1
        assert "--mode" in capsys.readouterr().err

    def test_missing_argument(self, capsys):
        assert main(["certify", "--n", "5", "--p", "3"]) == 1

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_no_subcommand(self, capsys):
        assert main([]) == 1

    def test_bad_primes_list(self, capsys):
        assert main(["scan", "--n-min", "5", "--n-max", "9", "--primes", "3,x", "--r-max", "1"]) == 1

    # the message is all that tells two refusals apart, so each line is pinned
    REFUSALS = {
        "certify --n 5 --p 4 --r 1": "p = 4 is not prime",
        "certify --n 4 --p 1763 --r 1": "p = 1763 is not prime",
        "certify --n 6 --p 3 --r 1": "p = 3 divides n = 6",
        "certify --n 3 --p 5 --r 1": "n = 3; the degree must be at least 4",
        "certify --n 5 --p 3 --r 0": "r = 0; the exponent must be at least 1",
        "certify --n 5 --p 2 --r 41": "q = 2^41 exceeds the supported bound 2^40",
        "certify --n 1099511627777 --p 3 --r 1": (
            "n = 1099511627777 exceeds the supported bound 2^40"
        ),
        "certify --n 5 --p 2 --r 1": "q = 2 certificates are out of scope",
        "certify --n 7 --p 3 --r 2 --product": (
            "product certification needs p odd, p coprime to n(n-1) and n > q;"
            " got CurveParams(n=7, p=3, r=2, q=9)"
        ),
        "witness --n 5 --p 2 --r 25": (
            "q = 33554432 exceeds the exhaustive oracle bound 16777216;"
            " witness and scan skip the oracle with --method constructive"
        ),
        "scan --n-min 4 --n-max 5 --primes 2 --r-max 25": (
            "q = 2^25 = 33554432 exceeds the exhaustive oracle bound 16777216;"
            " scan skips the oracle with --method constructive"
        ),
        "scan --n-min 4 --n-max 5 --primes 3 --r-max 0": "r_max = 0; need at least 1",
        "remark-check --n-max 8": "n_max = 8; need at least 9",
    }

    @pytest.mark.parametrize("command", REFUSALS)
    def test_refusal_line(self, command, capsys):
        assert main(command.split()) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {self.REFUSALS[command]}\n"

    def test_unwritable_out_path(self, tmp_path, capsys):
        missing = tmp_path / "nope" / "out.json"
        code = main(["certify", "--n", "5", "--p", "3", "--r", "1", "--out", str(missing)])
        assert code == 1
        assert "io error" in capsys.readouterr().err


class TestInternalErrors:
    @pytest.mark.parametrize("command", ["certify", "witness", "witness --method brute"])
    def test_unverified_witness_exits_2(self, command, capsys, monkeypatch):
        import hodgecert.witness

        monkeypatch.setattr(hodgecert.witness, "verify_witness", lambda params, w: False)
        assert main([*command.split(), "--n", "5", "--p", "3", "--r", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("internal invariant violation")

    def test_failed_assert_exits_2(self, capsys, monkeypatch):
        import hodgecert.witness

        # d = 0 trips the inverse construction's `assert tr.d >= 1`
        original = hodgecert.witness.derivation_trace
        monkeypatch.setattr(
            hodgecert.witness, "derivation_trace", lambda params: replace(original(params), d=0)
        )
        assert main(["certify", "--n", "31", "--p", "3", "--r", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "internal invariant violation: AssertionError\n"

    @pytest.mark.parametrize("command", ["witness", "witness --method brute", "scan"])
    def test_oracle_disagreement_exits_2(self, command, capsys, monkeypatch):
        import hodgecert.scanner

        monkeypatch.setattr(hodgecert.scanner, "brute_force_witness", lambda params: None)
        point = ["--n", "5", "--p", "3", "--r", "1"]
        if command == "scan":
            point = ["--n-min", "5", "--n-max", "5", "--primes", "3", "--r-max", "1"]
        assert main([*command.split(), *point]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "oracle found no witness at n=5, p=3, r=1" in captured.err

    def test_scan_failing_partway_exits_2_and_keeps_out(self, tmp_path, capsysbinary, monkeypatch):
        import hodgecert.scanner

        real = hodgecert.scanner.brute_force_witness
        calls = []

        def fails_at_fourth_point(params):
            calls.append(params)
            if len(calls) == 4:
                raise hodgecert.InternalInvariantError(f"injected at n={params.n}")
            return real(params)

        monkeypatch.setattr(hodgecert.scanner, "brute_force_witness", fails_at_fourth_point)
        # 48 points; the oracle answers for three of them, then fails
        grid = ["scan", "--n-min", "5", "--n-max", "40", "--primes", "3", "--r-max", "2"]
        assert main(grid) == 2
        captured = capsysbinary.readouterr()
        assert captured.out == b""
        assert captured.err == b"internal invariant violation: injected at n=10\n"
        assert len(calls) == 4

        # an existing --out file keeps its bytes and mode, and no temp file is left
        calls.clear()
        target = tmp_path / "report.json"
        target.write_bytes(b"old\n")
        target.chmod(0o640)
        assert main([*grid, "--out", str(target)]) == 2
        assert capsysbinary.readouterr().out == b""
        assert len(calls) == 4
        assert target.read_bytes() == b"old\n"
        assert target.stat().st_mode & 0o777 == 0o640
        assert [f.name for f in tmp_path.iterdir()] == ["report.json"]


    def test_scan_keeps_conditions_vs_witness_check(self, tmp_path, capsysbinary, monkeypatch):
        import hodgecert.scanner

        real = hodgecert.scanner.classify

        def flipped(params):
            conds = real(params)
            return replace(conds, theorem_applicable=not conds.theorem_applicable)

        monkeypatch.setattr(hodgecert.scanner, "classify", flipped)
        grid = ["scan", "--n-min", "5", "--n-max", "40", "--primes", "3", "--r-max", "2"]
        target = tmp_path / "report.json"
        target.write_bytes(b"old\n")
        for argv in (grid, [*grid, "--out", str(target)]):
            assert main(argv) == 2
            captured = capsysbinary.readouterr()
            assert captured.out == b""
            assert captured.err == (
                b"internal invariant violation: conditions and witness disagree at n = 5, p = 3, q = 3\n"
            )
        assert target.read_bytes() == b"old\n"
        assert [f.name for f in tmp_path.iterdir()] == ["report.json"]


class TestOracleBound:
    # witness-free point with q = 3^24: the exhaustive oracle is refused up front
    POINT = ["witness", "--n", "564859072963", "--p", "3", "--r", "24"]

    def test_default_method_exits_1_at_once(self, capsys):
        start = time.monotonic()
        assert main(self.POINT) == 1
        assert time.monotonic() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--method constructive" in captured.err

    def test_constructive_method_succeeds_at_once(self, capsys):
        start = time.monotonic()
        doc = run_json(capsys, self.POINT + ["--method", "constructive"])
        assert time.monotonic() - start < 1.0
        assert doc["witness_report"]["constructive"] is None

    # q = 2^25 at r = 25: the grid is refused before any smaller q is scanned
    ORACLE_GRID = ["--n-min", "4", "--n-max", "60", "--primes", "2", "--r-max", "25"]

    REMEDY = {"scan": "--method constructive", "cross-validate": "lower --r-max"}

    @pytest.mark.parametrize("command", REMEDY)
    def test_oracle_grid_exits_1_at_once(self, command, capsys):
        start = time.monotonic()
        assert main([command, *self.ORACLE_GRID]) == 1
        assert time.monotonic() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert self.REMEDY[command] in captured.err

    def test_constructive_grid_is_not_refused(self, capsys):
        doc = run_json(capsys, ["scan", *self.ORACLE_GRID, "--method", "constructive"])
        assert doc["rows"][-1]["q"] == 1 << 25


class TestLargeInputs:
    # near the 2^40 parameter bound certify must not build the O(q)
    # multiplicity system, so each call finishes well inside the timeout
    def run_certify(self, args: list[str]) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(hodgecert.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "hodgecert", "certify", *args],
            capture_output=True,
            text=True,
            env=env,
            timeout=10,
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    def test_odd_prime_power(self):
        doc = self.run_certify(["--n", "847288609445", "--p", "3", "--r", "25"])
        assert doc["certificate"]["verdict"] == "Determined"

    def test_product(self):
        doc = self.run_certify(["--n", "847288609445", "--p", "3", "--r", "25", "--product"])
        prod = doc["product_certificate"]
        assert len(prod["levels"]) == 25
        assert prod["dim_center_product"] == 282429536481

    def test_power_of_two(self):
        doc = self.run_certify(["--n", "1099511627775", "--p", "2", "--r", "38"])
        cert = doc["certificate"]
        assert cert["verdict"] == "Determined"
        assert cert["witness"]["branch"] == "Power2Special"


class TestWitness:
    def test_golden_bytes(self, capsys):
        """A BezoutCandidate1 witness, so bezout and determinant_check are set."""
        assert main(["witness", "--n", "31", "--p", "3", "--r", "2"]) == 0
        golden = Path(__file__).parent / "golden" / "witness_31_3_2.json"
        assert capsys.readouterr().out == golden.read_text()

    def test_both_methods(self, capsys):
        doc = run_json(capsys, ["witness", "--n", "31", "--p", "3", "--r", "2"])
        body = doc["witness_report"]
        assert body["witness_q_applicable"] is True
        assert body["constructive"]["branch"] == "BezoutCandidate1"
        assert body["constructive"]["i"] == 4
        assert body["brute_force"]["i"] == 4

    def test_witness_free_point(self, capsys):
        doc = run_json(capsys, ["witness", "--n", "19", "--p", "3", "--r", "2"])
        body = doc["witness_report"]
        assert body["constructive"] is None and body["brute_force"] is None

    def test_constructive_only(self, capsys):
        # n = 31 > 2q, so only the general route applies, and q | n + 1
        doc = run_json(
            capsys,
            ["witness", "--n", "31", "--p", "2", "--r", "3", "--method", "constructive"],
        )
        body = doc["witness_report"]
        assert body["witness_prime_applicable"] is False
        assert body["constructive"]["branch"] == "Power2Special"
        assert body["constructive"]["i"] == 3
        assert body["brute_force"] is None

    def test_brute_only(self, capsys):
        doc = run_json(
            capsys, ["witness", "--n", "31", "--p", "3", "--r", "2", "--method", "brute"]
        )
        assert doc["witness_report"] == {
            "n": 31,
            "p": 3,
            "r": 2,
            "q": 9,
            "witness_prime_applicable": False,
            "witness_q_applicable": True,
            "constructive": None,
            "brute_force": {
                "i": 4,
                "floor_value": 13,
                "branch": "BruteForce",
                "determinant_check": None,
                "bezout": None,
            },
        }


GRID = ["--n-min", "5", "--n-max", "16", "--primes", "2,3", "--r-max", "2"]
REPORTS = {
    "certify": ["certify", "--n", "5", "--p", "3", "--r", "1"],
    "certify-product": ["certify", "--n", "11", "--p", "3", "--r", "2", "--product"],
    "witness": ["witness", "--n", "31", "--p", "3", "--r", "2"],
    "scan": ["scan", *GRID],
    "scan-csv": ["scan", *GRID, "--format", "csv"],
    "remark-check": ["remark-check", "--n-max", "100"],
    "cross-validate": ["cross-validate", *GRID],
}


class TestScan:
    # every command writes its report through the same path, to stdout or --out
    @pytest.mark.parametrize("argv", REPORTS.values(), ids=REPORTS.keys())
    def test_stdout_matches_file(self, argv, tmp_path, capsysbinary):
        code = main(argv)
        captured = capsysbinary.readouterr()
        assert code == 0, captured.err
        target = tmp_path / "report"
        assert main(argv + ["--out", str(target)]) == 0
        assert capsysbinary.readouterr().out == b""
        assert captured.out and target.read_bytes() == captured.out

    @pytest.mark.parametrize("command", sorted({argv[0] for argv in REPORTS.values()}))
    def test_help_lists_out(self, command, capsys):
        assert main([command, "--help"]) == 0
        assert "--out" in capsys.readouterr().out

    def test_csv_format(self, tmp_path):
        target = tmp_path / "report.csv"
        argv = [
            "scan",
            "--n-min", "5",
            "--n-max", "9",
            "--primes", "2",
            "--r-max", "1",
            "--format", "csv",
            "--out", str(target),
        ]
        assert main(argv) == 0
        lines = target.read_text().splitlines()
        assert lines[0].startswith("# tool: hodgecert")
        assert lines[1].startswith("n,p,r,q,")
        # q = 2 rows carry no dimensions
        assert lines[2].endswith("OutOfScope,,,,")


class TestReports:
    def test_remark_check(self, capsys):
        doc = run_json(capsys, ["remark-check", "--n-max", "15"])
        assert doc["remark_check"]["matching"] == [7, 15]
        assert doc["remark_check"]["passed"] is True

    def test_cross_validate(self, capsys):
        argv = ["cross-validate", "--n-min", "4", "--n-max", "20", "--primes", "2,3", "--r-max", "2"]
        doc = run_json(capsys, argv)
        body = doc["cross_validation"]
        assert body["disagreements"] == 0
        assert body["points"] > 10


class TestEntryPoints:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "hodgecert", "certify", "--n", "7", "--p", "2", "--r", "2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["certificate"]["verdict"] == "Determined"

    def test_console_script(self, tmp_path):
        # Build the wrapper an installer would generate from [project.scripts],
        # so the declared entry point is exercised without installing anything.
        tomllib = pytest.importorskip("tomllib")
        with PYPROJECT.open("rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["hodgecert"]
        module, attr = target.split(":")
        bin_dir = tmp_path / "bin"
        bin_dir.mkdir()
        script = bin_dir / "hodgecert"
        script.write_text(
            f"#!{sys.executable}\n"
            "import sys\n"
            f"from {module} import {attr}\n"
            f"sys.exit({attr}())\n"
        )
        script.chmod(0o755)
        env = dict(os.environ)
        env["PATH"] = os.pathsep.join([str(bin_dir), env.get("PATH", "")])
        env["PYTHONPATH"] = str(Path(hodgecert.__file__).resolve().parents[1])

        proc = subprocess.run(
            ["hodgecert", "certify", "--n", "6", "--p", "3", "--r", "1"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 1, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: p = 3 divides n = 6")

    def test_bad_usage_exit_code_via_subprocess(self):
        proc = subprocess.run(
            [sys.executable, "-m", "hodgecert", "certify", "--n", "5"],
            capture_output=True,
            text=True,
        )
        # argparse default would be 2; the contract reserves 2 for internal bugs
        assert proc.returncode == 1


def readme_commands() -> list[str]:
    """Every hodgecert command in README's CLI block, continuation lines joined."""
    text = README.read_text(encoding="utf-8")
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [" ".join(line.split()) for line in lines if line.startswith("hodgecert ")]


# SHA-256 of each README example's report: stdout, or the --out file.
README_SHA256 = {
    "hodgecert certify --n 5 --p 3 --r 1": (
        "a3da791c256a741da70dcd879da658f7567c79a2072b8bc439400d00c48a23c9"
    ),
    "hodgecert certify --n 11 --p 3 --r 2 --product": (
        "6640dde3840422492538c194e71e1ef0c4d18bfe8bc57fd0814727bf08326715"
    ),
    "hodgecert witness --n 31 --p 3 --r 2": (
        "2f2ae3393aab19db9d6446bcfaf40ac9a9ee4d411a8e26fbde553df4a687c890"
    ),
    "hodgecert scan --n-min 5 --n-max 200 --primes 2,3,5 --r-max 3 --format csv --out report.csv": (
        "f28ea160e133822556ad72e34e740125e9b53ac150f9960d7afc994f4798dd0d"
    ),
    "hodgecert remark-check --n-max 100000": (
        "3fb030a0be37888107b7c437ba0f2eab58e1813bc80a5c85d8522bff8a6ed7e3"
    ),
    "hodgecert cross-validate --n-min 4 --n-max 500 --primes 2,3,5 --r-max 4": (
        "fad479a22d3952bbc8a60e3cab46356d5e909150ecd5c7be1d6864d85a77c52d"
    ),
}


def test_readme_examples_bytes(tmp_path, capsysbinary):
    digests = {}
    for command in readme_commands():
        argv = shlex.split(command)[1:]
        out = None
        if "--out" in argv:
            at = argv.index("--out") + 1
            out = argv[at] = str(tmp_path / argv[at])
        assert main(argv) == 0, command
        report = capsysbinary.readouterr().out if out is None else Path(out).read_bytes()
        digests[command] = hashlib.sha256(report).hexdigest()
    assert digests == README_SHA256
