"""Seeded inputs and timed passes for the four workloads.

Every workload drives hodgecert only through its public functions and its
CLI, from one process, with no threads or pools.  A pass is the unit a
workload repeats; ``run_pass`` returns its wall time, the latency of each
operation in it, and a JSON-able record of what it produced, which
``checks.py`` verifies with arithmetic of its own.

Why these workloads (see README.md for the layer each one stresses):

* scan_json -- per-row overhead at small q: two witness builds per row,
  derivation_trace strings, the brute-force oracle, the multiplicity
  system at q <= 2401, and the JSON serializer.
* scan_csv -- the same grid shape through the constructive route and the
  CSV writer: no oracle, no JSON.
* qsweep -- certify_single across q = p^r up to ~2^20, where the O(q)
  multiplicity system dominates; bypasses scanner, the oracle and cli.
* cli_point -- cold ``python -m hodgecert`` calls at tiny q: import,
  argparse and render_json only.
"""

import hashlib
import io
import os
import random
import resource
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden"
RUN_DIR = ROOT / ".perfbench_run"

WORKLOADS = ("scan_json", "scan_csv", "qsweep", "cli_point")

# The highest percentile with at least ten samples beyond it at the sample
# count of a 25 s run: 141 calls in one q-sweep pass, about 190 CLI calls
# in a run.  A scan takes seconds, so a run holds fewer than eleven and the
# tail is the slowest one.
TAIL_PERCENTILE = {"scan_json": 100, "scan_csv": 100, "qsweep": 90, "cli_point": 90}

CLI_COMMANDS = (
    ("certify", "--n", "5", "--p", "3", "--r", "1"),
    ("certify", "--n", "11", "--p", "3", "--r", "2", "--product"),
    ("witness", "--n", "31", "--p", "3", "--r", "2"),
)
CLI_GOLDEN = {
    CLI_COMMANDS[0]: "certificate_5_3_1.json",
    CLI_COMMANDS[1]: "product_11_3_2.json",
}


@dataclass(frozen=True)
class Size:
    scan_n: tuple[int, int]  # n window before the seeded shift
    scan_shift: int  # the seed shifts the window by 0 .. scan_shift - 1
    scan_primes: tuple[int, ...]
    scan_r_max: int
    q_tops: dict  # p -> largest r in the q-sweep
    product: tuple[int, int]  # (p, r) of the one product certificate
    min_passes: int


SIZES = {
    # The grid of ROADMAP's baseline (n 4..3000, p <= 7, r <= 4, 33,848 rows).
    "full": Size((4, 3000), 64, (2, 3, 5, 7), 4, {2: 20, 3: 13, 5: 8, 7: 7}, (3, 9), 3),
    # Milliseconds a pass, for the benchmark's own tests.
    "toy": Size((4, 40), 4, (2, 3), 2, {2: 4, 3: 3, 5: 2, 7: 1}, (3, 2), 2),
}


def cli_env() -> dict:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------- inputs ----------


def scan_grid(seed: int, size: Size) -> tuple[int, int]:
    shift = random.Random(seed).randrange(size.scan_shift)
    return size.scan_n[0] + shift, size.scan_n[1] + shift


def _band_point(rng: random.Random, p: int, q: int, lo: int, hi: int) -> int | None:
    """A seeded n in (lo, hi) where the paper's theorem applies, or None."""
    for _ in range(64):
        n = rng.randrange(lo + 1, hi)
        if n % p == 0 or n % q == 1:
            continue
        if p == 2 and n % (2 * q) == q - 1:
            continue
        return n
    return None


def qsweep_points(seed: int, size: Size) -> list[tuple]:
    """(kind, n, p, r) in sweep order.

    kind is "band" for n in (q, 2q) or (2q, 3q) where the theorem applies,
    "kq+1" for n = kq + 1 with k >= 2 (no witness can exist, so the
    verdict must be Inconclusive), and "product" for the one product
    certificate.
    """
    rng = random.Random(seed)
    points = []
    for p in sorted(size.q_tops):
        for r in range(1, size.q_tops[p] + 1):
            q = p**r
            if q == 2:
                continue  # q = 2 is outside certify_single's scope
            for lo, hi in ((q, 2 * q), (2 * q, 3 * q)):
                n = _band_point(rng, p, q, lo, hi)
                if n is not None:
                    points.append(("band", n, p, r))
            points.append(("kq+1", rng.randrange(2, 5) * q + 1, p, r))
    p, r = size.product
    q = p**r
    while True:
        n = rng.randrange(q + 1, 2 * q)
        if n * (n - 1) % p != 0:
            break
    points.append(("product", n, p, r))
    return points


def cli_commands(seed: int) -> list[tuple[str, ...]]:
    """The three CLI calls, rotated by the seed."""
    k = seed % len(CLI_COMMANDS)
    return list(CLI_COMMANDS[k:] + CLI_COMMANDS[:k])


# ---------- passes ----------


def now() -> tuple[int, int]:
    """(wall ns, CPU ns of this process and of every child it has reaped)."""
    ch = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.perf_counter_ns(), time.process_time_ns() + round((ch.ru_utime + ch.ru_stime) * 1e9)


def since(t0: tuple[int, int]) -> tuple[float, float]:
    """(wall, CPU) milliseconds since t0."""
    t1 = now()
    return (t1[0] - t0[0]) / 1e6, (t1[1] - t0[1]) / 1e6


@dataclass
class Pass:
    wall_ms: float
    cpu_ms: float
    latencies: list[tuple[float, float]]  # (wall, CPU) ms per operation; empty for a one-operation pass
    ops: int
    record: object


class Workload:
    """Inputs of one workload at one seed, and how to run a pass over them."""

    def __init__(self, name: str, seed: int, size: Size, tag: str) -> None:
        import hodgecert
        import hodgecert.cli  # noqa: F401  (so the tracer can rebind cli.main)

        self.name = name
        self.hc = hodgecert
        if name in ("scan_json", "scan_csv"):
            fmt = name[5:]
            n_min, n_max = scan_grid(seed, size)
            self.out_path = RUN_DIR / f"scan-{tag}.{fmt}"
            self.method = "both" if fmt == "json" else "constructive"
            self.spec = hodgecert.ScanSpec(
                n_min=n_min,
                n_max=n_max,
                primes=size.scan_primes,
                r_max=size.scan_r_max,
                output_path=str(self.out_path),
                format=fmt,
            )
        elif name == "qsweep":
            self.points = qsweep_points(seed, size)
        elif name == "cli_point":
            self.commands = cli_commands(seed)
            self.env = cli_env()
        else:
            raise ValueError(f"unknown workload {name!r}")

    def run_pass(self, in_process: bool = False) -> Pass:
        if self.name == "qsweep":
            return self._qsweep_pass()
        if self.name == "cli_point":
            return self._cli_pass(in_process)
        return self._scan_pass()

    def _scan_pass(self) -> Pass:
        t0 = now()
        rows, payload = self.hc.run_scan(self.spec, method=self.method)
        wall, cpu = since(t0)
        record = {
            "rows": len(rows),
            "payload_sha256": sha256(payload),
            "file_sha256": sha256(self.out_path.read_bytes()),
        }
        return Pass(wall, cpu, [], len(rows), record)

    def _qsweep_pass(self) -> Pass:
        hc = self.hc
        latencies = []
        record = []
        t_pass = now()
        for kind, n, p, r in self.points:
            t0 = now()
            try:
                if kind == "product":
                    cert = hc.certify_product(hc.validate(n, p, r))
                else:
                    cert = hc.certify_single(hc.validate(n, p, r))
            except Exception as exc:  # a failed operation is counted, not fatal
                latencies.append(since(t0))
                record.append({"kind": kind, "n": n, "p": p, "r": r, "error": repr(exc)})
                continue
            latencies.append(since(t0))
            if kind == "product":
                rec = {
                    "dim_center_product": cert.dim_center_product,
                    "dim_total": cert.dim_total,
                    "levels": [_single_record(lv) for lv in cert.levels],
                }
            else:
                rec = _single_record(cert)
            record.append({"kind": kind, "n": n, "p": p, "r": r, **rec})
        wall, cpu = since(t_pass)
        return Pass(wall, cpu, latencies, len(self.points), record)

    def _cli_pass(self, in_process: bool) -> Pass:
        """The CLI calls as cold subprocesses, or through cli.main in this
        process (for the traced run: spans cannot follow a subprocess)."""
        latencies = []
        record = []
        t_pass = now()
        for args in self.commands:
            t0 = now()
            code, out = call_main(self.hc, args) if in_process else self._call_cli(args)
            latencies.append(since(t0))
            record.append({"args": list(args), "exit": code, "stdout": out.decode("utf-8", "replace")})
        wall, cpu = since(t_pass)
        return Pass(wall, cpu, latencies, len(self.commands), record)

    def _call_cli(self, args) -> tuple[int, bytes]:
        proc = subprocess.run(
            [sys.executable, "-m", "hodgecert", *args],
            cwd=ROOT,
            env=self.env,
            capture_output=True,
            timeout=60,
            check=False,
        )
        return proc.returncode, proc.stdout


def _single_record(cert) -> dict:
    w = cert.witness
    return {
        "q": cert.params.q,
        "verdict": cert.verdict.value,
        "i": None if w is None else w.i,
        "floor_value": None if w is None else w.floor_value,
        "dim_abelian_variety": cert.dim_abelian_variety,
        "dim_unitary": cert.dim_unitary,
        "dim_center": cert.dim_center,
        "dim_semisimple": cert.dim_semisimple,
    }


def call_main(hc, args) -> tuple[int, bytes]:
    """Run hodgecert.cli.main(args) with stdout captured as bytes."""
    saved = sys.stdout
    sys.stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    try:
        code = hc.cli.main(list(args))
        sys.stdout.flush()
        out = sys.stdout.buffer.getvalue()
    finally:
        sys.stdout = saved
    return code, out


# ---------- start-up split of a CLI call ----------


def interpreter_ms(env: dict) -> float:
    """Wall time of a bare interpreter start and exit."""
    t0 = time.perf_counter_ns()
    subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=env, check=True, timeout=60)
    return (time.perf_counter_ns() - t0) / 1e6


def import_ms(env: dict) -> float:
    """Import time of hodgecert.cli and everything it pulls in, from -X importtime."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import hodgecert.cli"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        check=True,
        timeout=60,
    )
    total_us = 0
    for line in proc.stderr.decode().splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[0].startswith("import time:"):
            continue
        name = parts[2]
        # Nested imports are indented; top-level ones have a single space.
        if name.startswith(" hodgecert") and parts[1].strip().isdigit():
            total_us += int(parts[1])
    return total_us / 1e3
