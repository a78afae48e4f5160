"""hodgecert benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload scan_json --seed 1 --seconds 25 --trace 0

Run it from the root of a source checkout; it imports hodgecert from
``src/`` and needs no install and nothing outside the standard library.

With ``--trace 0`` the workload runs untraced in a child process for about
``--seconds`` and the end-to-end metrics are printed: set-up time, CPU
time of a pass, rows (points) per CPU second, CPU time per operation and
the child's peak RSS; the wall-clock figures are printed beside them,
ungated.  With ``--trace 1`` the child runs untraced passes for half the
time, then one traced pass and the reference probe, and prints the
per-layer metrics.  Every output is checked by ``checks.py``.  The last
line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  Exit code 0 means a result was printed; anything
else means the run could not complete.
"""

import argparse
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from workloads import GOLDEN, ROOT, RUN_DIR, SIZES, SRC, WORKLOADS

SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 170
# Reference point of the per-layer table in ROADMAP.md; the probe pushes
# it once through every traced function (see probe()).
PROBE_POINT = (31, 3, 2)
STARTUP_REPEATS = 5

# End-to-end metric -> unit, as in BENCHMARK.json.  The timings are CPU
# time (this process plus the children it reaped): on a shared host, wall
# time of identical passes moved by up to 40% with the load of other
# tenants.  Wall-clock figures are printed beside them, ungated.
END_TO_END = {
    "setup_s": "s",
    "cpu_s": "s",
    "rows_per_cpu_s": "1/s",
    "op_cpu_p50_ms": "ms",
    "op_cpu_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict:
    from tracer import COUNT_NAMES, SPAN_NAMES

    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(dict.fromkeys((c for c in COUNT_NAMES if c != "cm_type.entries_used"), "count"))
    units["scanner.bytes_written"] = "bytes"
    units["witness.builds_per_row"] = "ratio"
    units["cm_type.entries_used_ratio"] = "ratio"
    units["cli.interpreter_ms"] = "ms"
    units["cli.import_ms"] = "ms"
    units["cli.main_ms"] = "ms"
    units["trace.overhead_ratio"] = "ratio"
    return units


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def end_to_end(workload: str, passes: list[dict], setups: list[float], peak_rss_mb: float):
    """(gated metrics, printed lines) from the untraced passes of one run."""
    cpu_s = statistics.median(p["cpu_ms"] for p in passes) / 1e3
    wall_s = statistics.median(p["wall_ms"] for p in passes) / 1e3
    ops = statistics.median(p["ops"] for p in passes)
    # An operation is a certify call (qsweep), a CLI call (cli_point) or a
    # whole scan (scan_*).  A q-sweep pass is a fixed list of very unequal
    # calls, so its percentiles are taken per pass (a fixed rank) and the
    # median over passes is reported; elsewhere the run's samples are pooled.
    pct = workloads.TAIL_PERCENTILE[workload]
    if len(passes[0]["latencies"]) >= 20:
        groups = [p["latencies"] for p in passes]
    else:
        groups = [[x for p in passes for x in p["latencies"]] or [(p["wall_ms"], p["cpu_ms"]) for p in passes]]

    def stat(f, col):
        return statistics.median(f([x[col] for x in g]) for g in groups)

    n = len(groups[0])
    beyond = n - math.ceil(pct / 100 * n)
    metrics = {
        "setup_s": statistics.median(setups),
        "cpu_s": cpu_s,
        "rows_per_cpu_s": ops / cpu_s,
        "op_cpu_p50_ms": stat(statistics.median, 1),
        "op_cpu_tail_ms": stat(lambda v: percentile(v, pct), 1),
        "peak_rss_mb": peak_rss_mb,
    }
    info = [
        f"{len(passes)} passes of {ops:g} operations; setup_s is the median CPU time of {len(setups)} cold set-ups",
        f"op_cpu_tail_ms is p{pct} of {n} operations ({beyond} beyond it)"
        + (f", median over {len(groups)} passes" if len(groups) > 1 else ""),
        "wall clock, not gated:",
        f"  wall_s = {wall_s:.6g} s (median pass)",
        f"  rows_per_s = {ops / wall_s:.6g} 1/s",
        f"  latency_p50_ms = {stat(statistics.median, 0):.6g} ms",
        f"  latency_tail_ms = {stat(lambda v: percentile(v, pct), 0):.6g} ms (p{pct})",
    ]
    return metrics, info


def record_digest(record) -> str:
    return workloads.sha256(json.dumps(record, sort_keys=True).encode())


# ---------- child processes ----------


def child_setup(args) -> int:
    """Import hodgecert and build the workload's inputs, then exit."""
    sys.path.insert(0, str(SRC))
    workloads.Workload(args.workload, args.seed, SIZES[args.size], tag="setup")
    return 0


def probe(wl: "workloads.Workload") -> int:
    """One pass of the reference point through every traced function.

    Runs inside the traced region of every workload, so every per-layer
    metric is measured on every workload: a layer the workload bypasses
    reads as the probe's small cost, not as zero.  Returns its point count.
    """
    hc = wl.hc
    n, p, r = PROBE_POINT
    for fmt, method in (("json", "both"), ("csv", "constructive")):
        spec = hc.ScanSpec(
            n_min=n, n_max=n, primes=(p,), r_max=r, output_path=str(RUN_DIR / f"probe.{fmt}"), format=fmt
        )
        hc.run_scan(spec, method=method)
    hc.certify_product(hc.validate(11, 3, 2))
    for args in workloads.CLI_COMMANDS:
        workloads.call_main(hc, args)
    return 2 * r + 1 + len(workloads.CLI_COMMANDS)


def startup_split(wl: "workloads.Workload") -> dict:
    """Median interpreter start, hodgecert import and warm cli.main time, in ms."""
    env = workloads.cli_env()
    interp = [workloads.interpreter_ms(env) for _ in range(STARTUP_REPEATS)]
    imports = [workloads.import_ms(env) for _ in range(STARTUP_REPEATS)]
    mains = []
    for _ in range(STARTUP_REPEATS):
        for args in workloads.CLI_COMMANDS:
            t0 = workloads.now()
            workloads.call_main(wl.hc, args)
            mains.append(workloads.since(t0)[0])
    return {
        "cli.interpreter_ms": statistics.median(interp),
        "cli.import_ms": statistics.median(imports),
        "cli.main_ms": statistics.median(mains),
    }


def child_worker(args) -> int:
    """Run the workload's passes and write what they did to a JSON file."""
    sys.path.insert(0, str(SRC))
    size = SIZES[args.size]
    t_start = time.perf_counter()
    wl = workloads.Workload(args.workload, args.seed, size, tag=args.tag)
    result = {"passes": [], "first_record": None, "record_digests": []}

    def run(in_process: bool = False, tracer=None) -> "workloads.Pass":
        if tracer is None:
            ps = wl.run_pass(in_process)
        else:
            with tracer:
                ps = wl.run_pass(in_process)
        if result["first_record"] is None:
            result["first_record"] = ps.record
        result["record_digests"].append(record_digest(ps.record))
        return ps

    # cli_point is traced in process: spans cannot follow a subprocess.
    in_process = args.trace == 1 and args.workload == "cli_point"
    budget = args.seconds / 2 if args.trace else args.seconds
    min_passes = 1 if args.trace else size.min_passes
    t0 = time.perf_counter()
    while True:
        ps = run(in_process)
        result["passes"].append(
            {"wall_ms": ps.wall_ms, "cpu_ms": ps.cpu_ms, "ops": ps.ops, "latencies": ps.latencies}
        )
        # Stop where the run ends closest to the budget: start another pass
        # only if it would end less than half a pass past it.
        elapsed = time.perf_counter() - t0
        if len(result["passes"]) >= min_passes and elapsed + ps.wall_ms / 2e3 >= budget:
            break
        if time.perf_counter() - t_start > CHILD_TIMEOUT_S / 2:
            break

    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        traced = run(in_process, tracer)
        with tracer:
            probe_points = probe(wl)
        calls, self_ns = tracer.aggregate()
        tracer.write(RUN_DIR / f"trace-{args.workload}.txt")
        points = traced.ops + probe_points
        built = tracer.counts["cm_type.entries_built"]
        layer = {}
        for name in calls:
            layer[f"{name}.calls"] = calls[name]
            layer[f"{name}.self_s"] = self_ns[name] / 1e9
        layer.update({k: v for k, v in tracer.counts.items() if k != "cm_type.entries_used"})
        layer["witness.builds_per_row"] = (
            calls["witness.constructive_witness_prime"] + calls["witness.constructive_witness_q"]
        ) / points
        layer["cm_type.entries_used_ratio"] = tracer.counts["cm_type.entries_used"] / built if built else 0.0
        layer.update(startup_split(wl))
        untraced = statistics.median(p["wall_ms"] for p in result["passes"])
        layer["trace.overhead_ratio"] = traced.wall_ms / untraced
        result["per_layer"] = layer
        for fmt in ("json", "csv"):
            (RUN_DIR / f"probe.{fmt}").unlink(missing_ok=True)

    with open(RUN_DIR / f"worker-{args.tag}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def spawn(role: str, args, tag: str, timeout: float) -> tuple[int, float, float]:
    """Run this script in a child process; (exit code, wall seconds, CPU seconds)."""
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--role", role,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--size", args.size,
        "--tag", tag,
    ]  # fmt: skip
    t0 = workloads.now()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL)
    try:
        code = proc.wait(timeout=timeout)
    except BaseException:  # timeout, Ctrl-C or SIGTERM: stop the child before leaving
        proc.kill()
        proc.wait()
        raise
    wall_ms, cpu_ms = workloads.since(t0)
    return code, wall_ms / 1e3, cpu_ms / 1e3


# ---------- the run ----------


def environment() -> dict:
    """Python version, CPU count and revision, recorded with every result."""
    rev = "unavailable: not a git checkout"
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30, check=True
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            rev = "unavailable: git failed"
    digest = workloads.sha256(
        b"".join(path.read_bytes() for path in sorted((SRC / "hodgecert").glob("*.py")))
    )
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_revision": rev,
        "src_sha256": digest,
    }


def check_outputs(args, worker: dict, tag: str) -> list[str]:
    """Every check on what the worker produced; one entry per failed operation."""
    import checks

    size = SIZES[args.size]
    problems = []
    digests = worker["record_digests"]
    first = worker["first_record"]
    # Every pass (traced or not) must produce exactly what the first did.
    for k, digest in enumerate(digests[1:], start=1):
        if digest != digests[0]:
            problems.append(f"pass {k} output differs from pass 0")
    if args.workload in ("scan_json", "scan_csv"):
        fmt = args.workload[5:]
        path = RUN_DIR / f"scan-{tag}.{fmt}"
        data = path.read_bytes()
        path.unlink()
        if workloads.sha256(data) != first["payload_sha256"] or first["file_sha256"] != first["payload_sha256"]:
            problems.append("written file differs from the returned report")
        expected = checks.grid_points(*workloads.scan_grid(args.seed, size), size.scan_primes, size.scan_r_max)
        problems += checks.check_scan(data, fmt, "both" if fmt == "json" else "constructive", expected)
    elif args.workload == "qsweep":
        problems += checks.check_qsweep(first, workloads.qsweep_points(args.seed, size))
    else:
        goldens = {cmd: (GOLDEN / name).read_bytes() for cmd, name in workloads.CLI_GOLDEN.items()}
        problems += checks.check_cli(first, goldens)
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(SIZES), default="full", help=argparse.SUPPRESS)
    parser.add_argument("--role", choices=("main", "worker", "setup"), default="main", help=argparse.SUPPRESS)
    parser.add_argument("--tag", default="", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    # SIGTERM becomes SystemExit, so spawn() can stop its child first.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.role == "setup":
        return child_setup(args)
    if args.role == "worker":
        return child_worker(args)

    missing = [
        str(p.relative_to(ROOT))
        for p in [SRC / "hodgecert" / "__init__.py", *(GOLDEN / n for n in workloads.CLI_GOLDEN.values())]
        if not p.is_file()
    ]
    if missing:
        print(f"perfbench: run from a hodgecert source checkout; missing {', '.join(missing)}", file=sys.stderr)
        return 2
    RUN_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    t_run = time.perf_counter()

    # The worker is the first child this process reaps, so the children's
    # peak RSS read right after it is the worker's own (its CLI
    # subprocesses included).
    code, _wall, _cpu = spawn("worker", args, tag, CHILD_TIMEOUT_S)
    if code != 0:
        print(f"perfbench: workload child exited with {code}", file=sys.stderr)
        return 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    worker_path = RUN_DIR / f"worker-{tag}.json"
    worker = json.loads(worker_path.read_text(encoding="utf-8"))
    worker_path.unlink()

    problems = check_outputs(args, worker, tag)
    passes = worker["passes"]
    attempted = sum(p["ops"] for p in passes)
    failed = min(len(problems), attempted)
    env = environment()

    lines = [
        f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} size={args.size}",
        "env " + json.dumps(env, sort_keys=True),
    ]
    if args.trace == 0:
        setups = []
        for _ in range(SETUP_REPEATS):
            code, _wall, cpu = spawn("setup", args, tag, CHILD_TIMEOUT_S - (time.perf_counter() - t_run))
            if code != 0:
                print(f"perfbench: set-up child exited with {code}", file=sys.stderr)
                return 1
            setups.append(cpu)
        metrics, info = end_to_end(args.workload, passes, setups, peak_rss_mb)
        units = END_TO_END
        lines += info
    else:
        metrics = worker["per_layer"]
        units = per_layer_units()
        lines.append(f"per-layer numbers: one traced pass plus the reference probe at {PROBE_POINT}")
        lines.append(f"spans written to {RUN_DIR.name}/trace-{args.workload}.txt")

    for name, value in metrics.items():
        lines.append(f"{name} = {value:.6g} {units[name]}")
    lines.append(f"failed_ratio = {failed}/{attempted} = {failed / attempted:.6g} ratio")
    for problem in problems[:20]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in metrics},
    }
    with open(RUN_DIR / f"result-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump({"env": env, **result}, fh, indent=1)
    for line in lines:
        print("# " + line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
