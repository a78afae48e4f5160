"""Mutation gate: every and/or operand and every `return False` or `return
None` guard in the witness, params, hodge_report and scanner modules is
pinned by a Tier-1 test.

    python tests/mutation.py

Two operators, applied one site at a time inside each function (top-level
or a method) of those modules of src/hodgecert:

- force one operand of an `and` to True, or of an `or` to False;
- disable one `if ...: return False` or `if ...: return None` guard (its
  test becomes False); a bare `return` is not a guard.

Each mutant rewrites only the text of that operand or test.  It is written
into a temporary copy of src/, tests/, pyproject.toml and README.md, never
into src/, and the whole Tier-1 suite runs on it in one pytest process,
stopping at the first failure, with the module's own test file first.  A
test failure kills the mutant.  A mutant may instead loop forever (is_prime
without its m < 2 guard spins on m = 1), so each run is stopped after
TIMEOUT_FACTOR times the unmutated suite's time, measured first on the same
host.  Only a mutant listed in EXPECTED_TIMEOUTS is killed by a timeout;
any other timeout fails the gate, as a surviving mutant that merely slows
the suite would also time out.

Prints a JSON summary of the killed, surviving and timed-out mutants with
their source text, and exits 1 if any mutant survives or times out
unexpectedly.  Needs pytest and hypothesis, and nothing else outside the
standard library.
"""

import ast
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = ("witness", "params", "hodge_report", "scanner")
TIMEOUT_FACTOR = 3
# (module, function, mutated source) of each mutant that loops forever
EXPECTED_TIMEOUTS = {("params", "is_prime", "m < 2")}
# Copied into the temporary tree: the package, the tests, and the two files
# the tests read from the repository root.
TREE = ("src", "tests", "pyproject.toml", "README.md")
SKIP = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")


def _guard_value(node: ast.AST) -> str | None:
    """"False" or "None" for `if ...: return False` or `if ...: return None`,
    with no other statement in the body and the constant written out; else None."""
    if not isinstance(node, ast.If) or len(node.body) != 1:
        return None
    stmt = node.body[0]
    if not (isinstance(stmt, ast.Return) and isinstance(stmt.value, ast.Constant)):
        return None
    value = stmt.value.value
    return repr(value) if value is False or value is None else None


def mutation_sites(source: str) -> list[dict]:
    """Every mutation site inside a function of source, in source order: the
    expression to overwrite, its replacement and the enclosing function."""
    tree = ast.parse(source)
    members = [n for c in tree.body if isinstance(c, ast.ClassDef) for n in c.body]
    sites = []
    for func in tree.body + members:
        if not isinstance(func, ast.FunctionDef):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.BoolOp):
                forced = "True" if isinstance(node.op, ast.And) else "False"
                op = "and" if forced == "True" else "or"
                for operand in node.values:
                    sites.append(_site(source, func, operand, forced, f"{op} operand -> {forced}"))
            elif (value := _guard_value(node)) is not None:
                sites.append(_site(source, func, node.test, "False", f"return {value} guard off"))
    return sorted(sites, key=lambda s: s["span"])


def _site(source: str, func: ast.AST, node: ast.expr, replacement: str, operator: str) -> dict:
    return {
        "function": func.name,
        "line": node.lineno,
        "operator": operator,
        "source": ast.get_source_segment(source, node),
        "span": (node.lineno, node.col_offset, node.end_lineno, node.end_col_offset),
        "replacement": replacement,
    }


def mutate(source: str, site: dict) -> str:
    """source with the site's expression replaced; ast offsets count UTF-8 bytes."""
    lines = source.encode("utf-8").splitlines(keepends=True)
    start_line, start_col, end_line, end_col = site["span"]
    start = sum(len(line) for line in lines[: start_line - 1]) + start_col
    end = sum(len(line) for line in lines[: end_line - 1]) + end_col
    data = source.encode("utf-8")
    mutant = (data[:start] + site["replacement"].encode("utf-8") + data[end:]).decode("utf-8")
    compile(mutant, "<mutant>", "exec")  # a mutant that does not compile is a harness bug
    return mutant


def run_tests(tree: Path, module: str, timeout: float | None) -> str:
    """The outcome of one pytest run on the tree as it stands: "passed",
    "failed" or "timeout"."""
    tests = sorted((tree / "tests").glob("test_*.py"))
    own = tree / "tests" / f"test_{module}.py"
    ordered = ([own] if own in tests else []) + [t for t in tests if t != own]
    command = [
        sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
        "--hypothesis-seed=0", *map(str, ordered),
    ]
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        done = subprocess.run(command, cwd=tree, env=env, capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "failed" if done.returncode else "passed"


def main() -> int:
    started = time.perf_counter()
    killed, survived, timed_out, counts = [], [], [], {}
    with tempfile.TemporaryDirectory(prefix="hodgecert-mutation-") as tmp:
        tree = Path(tmp)
        for name in TREE:
            source, target = ROOT / name, tree / name
            if source.is_dir():
                shutil.copytree(source, target, ignore=SKIP)
            else:
                shutil.copy2(source, target)
        baseline = time.perf_counter()
        if run_tests(tree, "", None) != "passed":
            print("the unmutated tree fails its tests", file=sys.stderr)
            return 2
        timeout = TIMEOUT_FACTOR * (time.perf_counter() - baseline)
        for module in MODULES:
            path = tree / "src" / "hodgecert" / f"{module}.py"
            original = path.read_text(encoding="utf-8")
            sites = mutation_sites(original)
            counts[module] = {"mutants": len(sites), "killed": 0}
            try:
                for site in sites:
                    path.write_text(mutate(original, site), encoding="utf-8")
                    outcome = run_tests(tree, module, timeout)
                    entry = {"module": module, "outcome": outcome, **site}
                    del entry["span"], entry["replacement"]
                    if outcome == "passed":
                        survived.append(entry)
                    elif outcome == "failed" or (module, site["function"], site["source"]) in EXPECTED_TIMEOUTS:
                        killed.append(entry)
                        counts[module]["killed"] += 1
                    else:
                        timed_out.append(entry)
            finally:
                path.write_text(original, encoding="utf-8")
    summary = {
        "modules": counts,
        "mutants": len(killed) + len(survived) + len(timed_out),
        "killed": len(killed),
        "survived": len(survived),
        "timed_out": len(timed_out),
        "timeout_s": round(timeout, 1),
        "seconds": round(time.perf_counter() - started, 1),
        "surviving": survived,
        "timed_out_mutants": timed_out,
        "killed_mutants": killed,
    }
    print(json.dumps(summary, indent=2))
    return 1 if survived or timed_out else 0


if __name__ == "__main__":
    sys.exit(main())
