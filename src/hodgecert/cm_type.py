"""CM multiplicity system of the new part.

For each residue i in [1, q-1] coprime to p, the multiplicity attached to
the embedding sending a primitive q-th root of unity to its (-i)-th power
is floor(n*i/q).  Complementary residues i and q - i pair up to
d = n - 1, and the whole system sums to the dimension of the new part.
"""

import math
from dataclasses import dataclass

from .errors import DegreeNotAboveQError, HyperellipticExcludedError, ParityImpossibleError
from .lie_combinatorics import EigenPair, EigenSystem
from .params import CurveParams

__all__ = [
    "CMType",
    "as_eigen_system",
    "jacobian_dim",
    "multiplicities",
    "new_part_dim",
    "semisimplicity_criterion",
]


@dataclass(frozen=True)
class CMType:
    """Multiplicity system: entries maps each admissible residue to its multiplicity."""

    d: int
    entries: dict[int, int]
    phi_q: int


def jacobian_dim(params: CurveParams) -> int:
    """Genus of the full curve: (n-1)(q-1)/2."""
    prod = (params.n - 1) * (params.q - 1)
    if prod % 2 != 0:
        # q odd makes q-1 even; q even forces n odd.  Unreachable.
        raise ParityImpossibleError(f"(n-1)(q-1) = {prod} is odd")
    return prod // 2


def new_part_dim(params: CurveParams) -> int:
    """Dimension of the new part: (n-1) * phi(q) / 2.  Needs q > 2."""
    if params.q == 2:
        raise HyperellipticExcludedError("q = 2 has no new part distinct from the jacobian")
    prod = (params.n - 1) * params.phi
    if prod % 2 != 0:
        raise ParityImpossibleError(f"(n-1)*phi(q) = {prod} is odd")  # phi(q) even for q > 2
    return prod // 2


def multiplicities(params: CurveParams) -> CMType:
    """Build the full multiplicity system.  Needs n > q and q > 2."""
    n, p, q = params.n, params.p, params.q
    if q == 2:
        raise HyperellipticExcludedError("q = 2 is outside the certification scope")
    if n <= q:
        raise DegreeNotAboveQError(f"need n > q; got n = {n}, q = {q}")

    entries = {i: n * i // q for i in range(1, q) if i % p != 0}
    phi = params.phi
    d = n - 1

    assert len(entries) == phi
    # Complementary residues pair to d, all values positive and distinct
    # because consecutive admissible multiples of n are more than q apart.
    assert all(entries[i] + entries[q - i] == d for i in entries)
    assert all(v > 0 for v in entries.values())
    assert len(set(entries.values())) == phi
    assert sum(entries.values()) * 2 == d * phi

    return CMType(d=d, entries=entries, phi_q=phi)


def semisimplicity_criterion(cm: CMType) -> tuple[bool, int | None]:
    """Decide whether the multiplicity system forces the full semisimple part.

    True iff all multiplicities are distinct and positive and some residue
    tau has gcd(multiplicity, d) = 1; returns the smallest such tau.
    """
    values = list(cm.entries.values())
    distinct = len(set(values)) == len(values)
    positive = all(v > 0 for v in values)
    tau = None
    for i in sorted(cm.entries):
        if math.gcd(cm.entries[i], cm.d) == 1:
            tau = i
            break
    return (distinct and positive and tau is not None, tau)


def as_eigen_system(cm: CMType) -> EigenSystem:
    """Export the multiplicity system in the generic eigenvalue-pair format."""
    pairs = tuple(
        EigenPair(label=i, n_val=cm.entries[i], m_val=cm.d - cm.entries[i])
        for i in sorted(cm.entries)
    )
    return EigenSystem(d=cm.d, pairs=pairs)
