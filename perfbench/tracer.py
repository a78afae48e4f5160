"""Span tracer for the per-layer run.

Each traced public function is wrapped by rebinding its name in every
``hodgecert`` module that holds it (``hodge_report.constructive_witness_q``,
``scanner.certify_single``, ...), so calls made between modules are caught
too.  Nothing under ``src/`` changes: the originals are put back on exit.

Spans (name, start, end, parent) are kept in flat integer arrays in memory
and written out when the run ends.  A span's self time is its duration
minus the time covered by its direct child spans.
"""

import functools
import sys
from array import array
from time import perf_counter_ns

# (module, function) for every traced public function, per layer.
# lie_combinatorics is left out on purpose: no CLI, certify or scan path
# calls it.
TRACED = (
    ("params", "validate"),
    ("params", "classify"),
    ("witness", "constructive_witness_prime"),
    ("witness", "constructive_witness_q"),
    ("witness", "derivation_trace"),
    ("witness", "verify_witness"),
    ("witness", "brute_force_witness"),
    ("cm_type", "multiplicities"),
    ("cm_type", "semisimplicity_criterion"),
    ("hodge_report", "certify_single"),
    ("hodge_report", "certify_product"),
    ("scanner", "run_scan"),
    ("scanner", "compute_row"),
    ("scanner", "row_to_dict"),
    ("scanner", "rows_to_json_bytes"),
    ("scanner", "rows_to_csv_bytes"),
    ("scanner", "render_json"),
    ("scanner", "atomic_write"),
    ("cli", "main"),
)

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fn in TRACED)


def _smallest_missing_key(entries: dict) -> int:
    """p for a multiplicity system: its keys are exactly the i < q with p not dividing i."""
    k = 2
    while k in entries:
        k += 1
    return k


def _count_brute(counts, args, result):
    # The oracle scans i = 1, 2, ... and stops at the first witness.
    counts["witness.brute_i_tried"] += result.i if result is not None else args[0].q - 1


def _count_multiplicities(counts, args, result):
    counts["cm_type.entries_built"] += len(result.entries)


def _count_criterion(counts, args, result):
    # The criterion walks the residues in order up to tau; the rank of tau
    # is the number of entries it needed.
    tau = result[1]
    if tau is not None:
        p = _smallest_missing_key(args[0].entries)
        counts["cm_type.entries_used"] += tau - tau // p


def _count_rows(counts, args, result):
    counts["scanner.rows_held_peak"] = max(counts["scanner.rows_held_peak"], len(args[0]))


def _count_write(counts, args, result):
    counts["scanner.bytes_written"] += len(args[1])


COUNTERS = {
    "witness.brute_force_witness": _count_brute,
    "cm_type.multiplicities": _count_multiplicities,
    "cm_type.semisimplicity_criterion": _count_criterion,
    "scanner.rows_to_json_bytes": _count_rows,
    "scanner.rows_to_csv_bytes": _count_rows,
    "scanner.atomic_write": _count_write,
}

COUNT_NAMES = (
    "witness.brute_i_tried",
    "cm_type.entries_built",
    "cm_type.entries_used",
    "scanner.rows_held_peak",
    "scanner.bytes_written",
)


class Tracer:
    """Context manager that traces every function in TRACED while active."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []
        self.name = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self.counts = dict.fromkeys(COUNT_NAMES, 0)

    def _wrap(self, name_id: int, fn):
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self._stack
        counts = self.counts
        counter = COUNTERS.get(SPAN_NAMES[name_id])

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter_ns()
                starts[idx] = t0
                stack.pop()
            if counter is not None:
                counter(counts, args, result)
            return result

        return functools.update_wrapper(traced, fn)

    def __enter__(self) -> "Tracer":
        modules = [m for key, m in sys.modules.items() if key == "hodgecert" or key.startswith("hodgecert.")]
        for name_id, (mod, fn_name) in enumerate(TRACED):
            original = getattr(sys.modules[f"hodgecert.{mod}"], fn_name)
            wrapper = self._wrap(name_id, original)
            for module in modules:
                if getattr(module, fn_name, None) is original:
                    self._saved.append((module, fn_name, original))
                    setattr(module, fn_name, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for module, fn_name, original in reversed(self._saved):
            setattr(module, fn_name, original)
        self._saved.clear()

    def aggregate(self) -> tuple[dict[str, int], dict[str, int]]:
        """(calls, self_ns) per span name over every span recorded so far."""
        n = len(self.start)
        covered = [0] * n
        for k in range(n):
            par = self.parent[k]
            if par >= 0:
                covered[par] += self.end[k] - self.start[k]
        calls = dict.fromkeys(SPAN_NAMES, 0)
        self_ns = dict.fromkeys(SPAN_NAMES, 0)
        for k in range(n):
            key = SPAN_NAMES[self.name[k]]
            calls[key] += 1
            self_ns[key] += self.end[k] - self.start[k] - covered[k]
        return calls, self_ns

    def write(self, path) -> None:
        """Write the spans as lines 'id name start_ns end_ns parent_id', times from the first span."""
        t0 = self.start[0] if len(self.start) else 0
        with open(path, "w", encoding="ascii") as fh:
            fh.write("# id name start_ns end_ns parent_id\n")
            for k in range(len(self.start)):
                fh.write(
                    f"{k} {SPAN_NAMES[self.name[k]]} {self.start[k] - t0} "
                    f"{self.end[k] - t0} {self.parent[k]}\n"
                )
