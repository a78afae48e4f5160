"""CM multiplicity system of the new part: the O(q) oracle.

For each residue i in [1, q-1] coprime to p, the multiplicity attached to
the embedding sending a primitive q-th root of unity to its (-i)-th power
is floor(n*i/q).  Complementary residues i and q - i pair up to
d = n - 1, and the whole system sums to the dimension of the new part.
The certifier never builds this system; the tests check its verdicts
against it.
"""

import math
from dataclasses import dataclass

from .errors import ParameterError
from .params import CurveParams

__all__ = ["CMType", "multiplicities", "semisimplicity_criterion"]


@dataclass(frozen=True)
class CMType:
    """Multiplicity system: entries maps each admissible residue to its multiplicity."""

    d: int
    entries: dict[int, int]
    phi_q: int


def multiplicities(params: CurveParams) -> CMType:
    """Build the full multiplicity system.  Needs n > q and q > 2."""
    n, p, q = params.n, params.p, params.q
    if q == 2:
        raise ParameterError("q = 2 is outside the certification scope")
    if n <= q:
        raise ParameterError(f"need n > q; got n = {n}, q = {q}")

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
