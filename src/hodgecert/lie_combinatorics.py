"""Curve-independent eigenvalue-multiplicity combinatorics.

These checkers implement the arithmetic hypotheses behind the reductive
Lie-algebra arguments: a coprime pair of multiplicities, complement-free
multiplicity lists, and greedy selection of a compatible label subset
that always covers at least half of the system.
"""

import math
from dataclasses import dataclass
from typing import Hashable, Sequence

from .errors import (
    BoundViolatedError,
    DuplicateMultiplicityError,
    ParameterError,
    SelfConflictError,
)


@dataclass(frozen=True)
class EigenPair:
    """A labelled multiplicity pair with n_val + m_val = d."""

    label: Hashable
    n_val: int
    m_val: int


@dataclass(frozen=True)
class EigenSystem:
    """A finite family of eigenvalue multiplicity pairs over a common d."""

    d: int
    pairs: tuple[EigenPair, ...]

    def __post_init__(self) -> None:
        labels = [pr.label for pr in self.pairs]
        if len(set(labels)) != len(labels):
            raise ParameterError("eigenvalue system labels must be distinct")
        for pr in self.pairs:
            if pr.n_val < 1 or pr.m_val < 1:
                raise ParameterError(f"pair {pr.label!r} has a non-positive multiplicity")
            if pr.n_val + pr.m_val != self.d:
                raise ParameterError(
                    f"pair {pr.label!r}: {pr.n_val} + {pr.m_val} != d = {self.d}"
                )


def eigen_system(d: int, triples: Sequence[tuple[Hashable, int, int]]) -> EigenSystem:
    """Convenience constructor from (label, n_val, m_val) triples."""
    return EigenSystem(d=d, pairs=tuple(EigenPair(*t) for t in triples))


def coprime_pair_check(mults: Sequence[int]) -> bool:
    """True iff there are exactly two multiplicities and they are coprime."""
    if not mults:
        raise ParameterError("empty multiplicity list")
    return len(mults) == 2 and math.gcd(mults[0], mults[1]) == 1


def complement_free_check(a: Sequence[int], n: int) -> bool:
    """True iff the a_i are distinct, lie in [1, n-1], and no a_i equals n - a_j.

    The i = j case is included, so any a_i = n/2 fails.
    """
    if n < 2:
        raise ParameterError(f"need n >= 2; got {n}")
    if not a:
        raise ParameterError("empty multiplicity list")
    if len(set(a)) != len(a):
        return False
    if any(not 1 <= x <= n - 1 for x in a):
        return False
    vals = set(a)
    return all(n - x not in vals for x in a)


def greedy_compatible_subset(system: EigenSystem) -> tuple[Hashable, ...]:
    """Greedily select a maximal label subset with n_val[x] != m_val[y] for all x, y.

    The system must be free of self-conflicts (n_val == m_val) and repeated
    n_val values; under those hypotheses any maximal compatible subset covers
    at least half the system, and the result is re-verified quadratically
    before being returned.
    """
    for pr in system.pairs:
        if pr.n_val == pr.m_val:
            raise SelfConflictError(f"pair {pr.label!r} has n_val == m_val == {pr.n_val}")
    n_vals = [pr.n_val for pr in system.pairs]
    if len(set(n_vals)) != len(n_vals):
        raise DuplicateMultiplicityError("repeated n_val; the subset bound needs them distinct")

    # One pass is maximal: chosen only grows, so a pair rejected once stays rejected.
    chosen: list[EigenPair] = []
    for pr in system.pairs:
        if all(pr.n_val != x.m_val and pr.m_val != x.n_val for x in chosen):
            chosen.append(pr)

    # Quadratic post-check of the defining condition, including self-pairs.
    for x in chosen:
        for y in chosen:
            assert x.n_val != y.m_val

    if 2 * len(chosen) < len(system.pairs):
        raise BoundViolatedError(
            f"maximal subset of size {len(chosen)} misses the bound for {len(system.pairs)} pairs"
        )
    return tuple(x.label for x in chosen)


def multiplicity_hypotheses(system: EigenSystem) -> bool:
    """True iff all n_val are distinct, all values positive, and some pair is coprime."""
    n_vals = [pr.n_val for pr in system.pairs]
    if len(set(n_vals)) != len(n_vals):
        return False
    if any(pr.n_val < 1 or pr.m_val < 1 for pr in system.pairs):
        return False
    return any(math.gcd(pr.n_val, pr.m_val) == 1 for pr in system.pairs)
