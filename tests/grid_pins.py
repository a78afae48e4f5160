"""Check the benchmark grid's scan reports against their SHA-256 pins on any
Python >= 3.10, with the standard library only (no pytest, no hypothesis).

    PYTHONPATH=src python3 tests/grid_pins.py

The grid and the pins are read from the source of
test_scanner.py::TestSerialization::test_benchmark_grid_bytes, so they are
stated once.  For each method and format it prints the digest, whether it
matches its pin, and the render time (the least CPU time of three renders);
it exits 1 if any digest differs.  pytest does not collect this file.
"""

import ast
import hashlib
import platform
import sys
import time
from pathlib import Path

from hodgecert import ScanSpec, build_rows, rows_to_csv_bytes, rows_to_json_bytes

TEST = Path(__file__).with_name("test_scanner.py")


def pinned() -> tuple[ScanSpec, dict]:
    """The test's grid and its {method: (json_sha256, csv_sha256)} pins."""
    tree = ast.parse(TEST.read_text())
    test = next(
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "test_benchmark_grid_bytes"
    )
    assigned = {
        node.targets[0].id: node.value
        for node in test.body
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
    }
    spec_args = [ast.literal_eval(arg) for arg in assigned["spec"].args]
    return ScanSpec(*spec_args), ast.literal_eval(assigned["expected"])


def render_time(writer, rows) -> tuple[bytes, float]:
    best = float("inf")
    for _ in range(3):
        start = time.process_time()
        payload = writer(rows)
        best = min(best, time.process_time() - start)
    return payload, best


def main() -> int:
    spec, expected = pinned()
    print(f"Python {platform.python_version()}")
    failed = 0
    for method, shas in expected.items():
        rows = build_rows(spec, method)
        for fmt, writer, sha in zip(("json", "csv"), (rows_to_json_bytes, rows_to_csv_bytes), shas):
            payload, seconds = render_time(writer, rows)
            digest = hashlib.sha256(payload).hexdigest()
            ok = digest == sha
            failed += not ok
            verdict = "ok" if ok else "MISMATCH"
            print(f"{method:12} {fmt:4} {len(rows)} rows  {digest[:12]}  {verdict}  render {seconds:.3f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
