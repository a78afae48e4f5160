"""The verdict counts of a grid, in closed form per (p, r).

At q = 2 every point is OutOfScope.  At q > 2 a point is Inconclusive when
n <= q, when n = kq + 1 with k >= 2, or, for p = 2, when n = q - 1 modulo
2q with n > q; every other point is Determined.  Each class is counted by
arithmetic on the degree range, so the cost is O(1) per level.
"""

from collections import Counter

import pytest

from hodgecert import ScanSpec, build_rows
from hodgecert.params import MAX_SUPPORTED


def congruent(lo: int, hi: int, mod: int, res: int) -> int:
    """How many n in [lo, hi] are res modulo mod."""
    if lo > hi:
        return 0
    return (hi - res) // mod - (lo - 1 - res) // mod


def valid(lo: int, hi: int, p: int) -> int:
    """How many degrees in [lo, hi] p does not divide."""
    return 0 if lo > hi else hi - lo + 1 - congruent(lo, hi, p, 0)


def closed_form_counts(spec: ScanSpec) -> Counter:
    counts = Counter()
    lo, hi = max(spec.n_min, 4), spec.n_max
    for p in sorted(set(spec.primes)):
        for r in range(1, spec.r_max + 1):
            q = p**r
            if q > MAX_SUPPORTED:
                break
            total = valid(lo, hi, p)
            if q == 2:
                counts["OutOfScope"] += total
                continue
            # kq + 1 and q - 1 + 2qk are never multiples of p, so they are all valid
            inconclusive = valid(lo, min(hi, q), p) + congruent(max(lo, 2 * q + 1), hi, q, 1)
            if p == 2:
                inconclusive += congruent(max(lo, q + 1), hi, 2 * q, q - 1)
            counts["Inconclusive"] += inconclusive
            counts["Determined"] += total - inconclusive
    return counts


def scanned_counts(spec: ScanSpec) -> Counter:
    return Counter(row.verdict for row in build_rows(spec, "constructive"))


@pytest.mark.parametrize(
    "spec, expected",
    [
        # the grid of tests/golden/scan_4_40_p2-3-5_r3.*
        (ScanSpec(4, 40, (2, 3, 5), 3), (91, 107, 18)),
        (ScanSpec(4, 300, (2, 3, 5, 7, 11, 13), 7), (2896, 6630, 148)),
    ],
)
def test_pinned_grids(spec, expected):
    counts = closed_form_counts(spec)
    assert (counts["Determined"], counts["Inconclusive"], counts["OutOfScope"]) == expected
    assert counts == scanned_counts(spec)


@pytest.mark.parametrize(
    "spec",
    [
        ScanSpec(37, 150, (2, 3, 7), 4),
        ScanSpec(4, 4, (3,), 1),
        ScanSpec(9, 9, (3,), 2),
        ScanSpec(2**40 - 3, 2**40, (2, 3), 40),
    ],
)
def test_other_ranges(spec):
    # a degree range that starts past 4, a single point, no valid point, and
    # the largest degrees with levels up to the 2^40 cap on q
    assert closed_form_counts(spec) == scanned_counts(spec)
