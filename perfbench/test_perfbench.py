"""The benchmark's own tests, at toy sizes.

    python3 -m pytest perfbench          # or: python3 -m unittest discover -s perfbench

They run the real run.py end to end with ``--size toy`` and check the
gates in checks.py against deliberately tampered outputs.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from workloads import GOLDEN, ROOT, SIZES, SRC  # noqa: E402

sys.path.insert(0, str(SRC))
import hodgecert  # noqa: E402
import hodgecert.cli  # noqa: E402,F401

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
TOY = SIZES["toy"]


def run_bench(workload: str, trace: int) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0.2", "--trace", str(trace), "--size", "toy"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )  # fmt: skip
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def toy_scan(fmt: str) -> tuple[bytes, list]:
    n_min, n_max = workloads.scan_grid(7, TOY)
    spec = hodgecert.ScanSpec(n_min=n_min, n_max=n_max, primes=TOY.scan_primes, r_max=TOY.scan_r_max, format=fmt)
    _rows, payload = hodgecert.run_scan(spec, method="both" if fmt == "json" else "constructive")
    return payload, checks.grid_points(n_min, n_max, TOY.scan_primes, TOY.scan_r_max)


class TestMetricsPrinted(unittest.TestCase):
    def test_every_metric_printed_with_its_unit(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in BENCHMARK[key]}
            for workload in [w["name"] for w in BENCHMARK["workloads"]]:
                with self.subTest(workload=workload, trace=trace):
                    lines, result = run_bench(workload, trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(got, expected)
                    text = "\n".join(lines)
                    for name, unit in expected.items():
                        self.assertIn(f"# {name} = ", text)
                        self.assertRegex(text, rf"# {name} = \S+ {unit}\n")
                    self.assertIn("# failed_ratio = 0/", text)


class TestTamperingCounted(unittest.TestCase):
    def test_clean_scans_pass(self):
        for fmt in ("json", "csv"):
            payload, expected = toy_scan(fmt)
            method = "both" if fmt == "json" else "constructive"
            self.assertEqual(checks.check_scan(payload, fmt, method, expected), [])

    def test_tampered_json_row_is_a_failure(self):
        payload, expected = toy_scan("json")
        doc = json.loads(payload)
        row = next(r for r in doc["rows"] if r["witness_constructive"] is not None)
        row["witness_constructive"]["i"] = row["q"]  # outside 1 <= i <= q - 1
        tampered = json.dumps(doc).encode()
        self.assertEqual(len(checks.check_scan(tampered, "json", "both", expected)), 1)

    def test_tampered_csv_ledger_is_a_failure(self):
        payload, expected = toy_scan("csv")
        lines = payload.decode().splitlines(keepends=True)
        cells = lines[-1].split(",")
        cells[12] = str(int(cells[12]) + 1)  # dim_unitary
        tampered = "".join(lines[:-1] + [",".join(cells)]).encode()
        self.assertEqual(len(checks.check_scan(tampered, "csv", "constructive", expected)), 1)

    def test_dropped_row_is_a_failure(self):
        payload, expected = toy_scan("csv")
        lines = payload.decode().splitlines(keepends=True)
        tampered = "".join(lines[:-1]).encode()
        self.assertGreaterEqual(len(checks.check_scan(tampered, "csv", "constructive", expected)), 1)

    def test_tampered_certificate_byte_is_a_failure(self):
        goldens = {cmd: (GOLDEN / name).read_bytes() for cmd, name in workloads.CLI_GOLDEN.items()}
        args = workloads.CLI_COMMANDS[0]
        code, out = workloads.call_main(hodgecert, args)
        good = {"args": list(args), "exit": code, "stdout": out.decode()}
        self.assertIsNone(checks.check_cli_call(good, goldens))
        flipped = out.replace(b'"n": 5', b'"n": 6', 1)
        self.assertNotEqual(flipped, out)
        bad = dict(good, stdout=flipped.decode())
        self.assertEqual(len(checks.check_cli([good, bad], goldens)), 1)

    def test_wrong_qsweep_verdict_is_a_failure(self):
        points = workloads.qsweep_points(7, TOY)
        wl = workloads.Workload("qsweep", 7, TOY, tag="test")
        record = wl.run_pass().record
        self.assertEqual(checks.check_qsweep(record, points), [])
        kq1 = next(rec for rec in record if rec["kind"] == "kq+1")
        kq1["verdict"] = "Determined"
        self.assertEqual(len(checks.check_qsweep(record, points)), 1)


class TestTracing(unittest.TestCase):
    def test_tracing_keeps_output_bytes_and_restores_functions(self):
        from tracer import Tracer

        original = hodgecert.scanner.certify_single
        payload, _ = toy_scan("json")
        outs = [workloads.call_main(hodgecert, args) for args in workloads.CLI_COMMANDS]
        tracer = Tracer()
        with tracer:
            self.assertIsNot(hodgecert.scanner.certify_single, original)
            traced_payload, _ = toy_scan("json")
            traced_outs = [workloads.call_main(hodgecert, args) for args in workloads.CLI_COMMANDS]
        self.assertIs(hodgecert.scanner.certify_single, original)
        self.assertEqual(traced_payload, payload)
        self.assertEqual(traced_outs, outs)
        calls, _self_ns = tracer.aggregate()
        self.assertGreater(calls["scanner.compute_row"], 0)
        self.assertGreater(calls["cli.main"], 0)

    def test_self_time_excludes_children(self):
        from tracer import SPAN_NAMES, Tracer

        tracer = Tracer()
        # root [0, 100] with children [10, 30] and [40, 90]; the second has a child [50, 60].
        for name, parent, start, end in ((0, -1, 0, 100), (1, 0, 10, 30), (2, 0, 40, 90), (3, 2, 50, 60)):
            tracer.name.append(name)
            tracer.parent.append(parent)
            tracer.start.append(start)
            tracer.end.append(end)
        calls, self_ns = tracer.aggregate()
        self.assertEqual([self_ns[SPAN_NAMES[k]] for k in range(4)], [30, 20, 40, 10])
        self.assertEqual(sum(calls.values()), 4)


if __name__ == "__main__":
    unittest.main()
