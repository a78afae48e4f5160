"""Shared test helpers: parameter strategies, grid iterators, and the
exhaustive subset searcher used as an oracle for the greedy selector."""

import itertools

from hypothesis import strategies as st

from hodgecert import validate
from lie_combinatorics import EigenPair, EigenSystem

PRIMES = [2, 3, 5, 7, 11, 13]


def pairs_valid(a: EigenPair, b: EigenPair) -> bool:
    # the condition the greedy selector must enforce on every kept pair
    return a.n_val not in (b.n_val, b.m_val)


def exhaustive_best_subset(system: EigenSystem) -> tuple:
    """Largest pairwise-valid subset, by brute force over all subsets."""
    labels = [p.label for p in system.pairs]
    by_label = {p.label: p for p in system.pairs}
    for size in range(len(labels), 0, -1):
        for combo in itertools.combinations(labels, size):
            ok = all(
                pairs_valid(by_label[x], by_label[y])
                for x in combo
                for y in combo
                if x != y
            )
            if ok:
                return combo
    return ()


@st.composite
def valid_params(draw, max_q=729, max_n=3000, min_n=4):
    """Strategy producing validated parameter triples."""
    p = draw(st.sampled_from(PRIMES))
    r_cap = 1
    while p ** (r_cap + 1) <= max_q:
        r_cap += 1
    r = draw(st.integers(min_value=1, max_value=r_cap))
    n = draw(st.integers(min_value=min_n, max_value=max_n).filter(lambda m: m % p != 0))
    return validate(n, p, r)


def small_grid(max_q=128, max_n=300):
    """Deterministic iterator over validated params for exhaustive unit sweeps."""
    for p in PRIMES:
        r = 1
        while p**r <= max_q:
            for n in range(4, max_n + 1):
                if n % p != 0:
                    yield validate(n, p, r)
            r += 1
