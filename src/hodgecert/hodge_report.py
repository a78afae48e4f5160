"""Certificates for the Hodge group of the new part.

A single-level certificate decides whether the group is the full unitary
group of the CM Hermitian form and always carries the exact dimension
ledger (unitary = center + semisimple).  A product certificate stacks one
determined certificate per level q = p, p^2, ..., p^r and adds the center
of the multi-level algebra, whose dimension is phi(p^r)/2.
"""

from dataclasses import dataclass
from enum import Enum

from .errors import InternalInvariantError, ParameterError
from .params import ConditionStatus, CurveParams, classify, validate
from .witness import Witness, constructive_witness

__all__ = [
    "HodgeCertificate",
    "ProductCertificate",
    "Verdict",
    "certify_product",
    "certify_single",
    "ledger",
]


class Verdict(Enum):
    DETERMINED = "Determined"
    INCONCLUSIVE = "Inconclusive"
    OUT_OF_SCOPE = "OutOfScope"


# The determination criterion is conditional on the Galois group of f; that
# hypothesis cannot be evaluated from (n, p, r) alone, so every certificate
# records it as an assumption instead of silently relying on it.
GALOIS_ASSUMPTION = (
    "assumes f is separable of degree n with Galois group S_n or A_n, "
    "where n >= 5, or n = 4 with group S_4; not verifiable from (n, p, r)"
)

# Transporting the product ledger from the product of new parts to the full
# jacobian fixes an isogeny; the certified Lie algebra is determined up to
# the corresponding conjugation.
ISOGENY_NOTE = (
    "dimensions computed on the product of new parts; transport to the "
    "jacobian is by conjugation under a fixed isogeny"
)


@dataclass(frozen=True)
class HodgeCertificate:
    # Fields in report order, here and below: scanner.to_report writes them as declared.
    params: CurveParams
    verdict: Verdict
    assumption: str
    conditions: ConditionStatus
    witness: Witness | None
    dim_abelian_variety: int
    dim_unitary: int
    dim_center: int
    dim_semisimple: int


@dataclass(frozen=True)
class ProductCertificate:
    params: CurveParams
    dim_center_product: int
    dim_total: int
    isogeny_note: str
    levels: tuple[HodgeCertificate, ...]


def ledger(params: CurveParams) -> tuple[int, int, int, int]:
    """(abelian variety, unitary, center, semisimple) dimensions, in report
    order: with d = n - 1 and h = phi(q)/2, the center's dimension, they are
    d*h, d^2*h, h and (d^2 - 1)*h.  phi(q) is even for q > 2."""
    if params.q == 2:
        raise ParameterError("q = 2 has no new part distinct from the jacobian")
    h = params.phi // 2
    d = params.n - 1
    return d * h, d * d * h, h, (d * d - 1) * h


def certify_single(params: CurveParams) -> HodgeCertificate:
    """Certify one level in O(log q).  Determined iff the sufficiency
    conditions hold; the dimension ledger is populated either way."""
    if params.q == 2:
        raise ParameterError("q = 2 certificates are out of scope")
    return certificate_from_witness(params, classify(params), constructive_witness(params))


def verdict_from_witness(
    params: CurveParams, conds: ConditionStatus, witness: Witness | None
) -> Verdict:
    """The verdict for q > 2 from conds = classify(params) and witness =
    constructive_witness(params), the one rule of certificates and scan rows.
    A verified witness i is a tau with gcd(floor(n*i/q), n-1) = 1, and for
    n > q the multiplicities are distinct and positive, so Determined needs
    only n > q and a witness.  For q > 2 that is conds.theorem_applicable
    (odd p: prime-power route = B, odd-prime case i = A, case ii implies B;
    p = 2: odd-prime = A, prime-power = C); a disagreement raises."""
    if conds.theorem_applicable != (conds.n_gt_q and witness is not None):
        raise InternalInvariantError(
            f"conditions and witness disagree at n = {params.n}, p = {params.p}, q = {params.q}"
        )
    return Verdict.DETERMINED if conds.theorem_applicable else Verdict.INCONCLUSIVE


def certificate_from_witness(
    params: CurveParams, conds: ConditionStatus, witness: Witness | None
) -> HodgeCertificate:
    """Certificate for q > 2: the verdict_from_witness verdict, the witness
    when Determined, and the ledger."""
    verdict = verdict_from_witness(params, conds, witness)
    dim_a, dim_u, dim_c, dim_ss = ledger(params)
    return HodgeCertificate(
        params=params,
        verdict=verdict,
        assumption=GALOIS_ASSUMPTION,
        conditions=conds,
        witness=witness if verdict is Verdict.DETERMINED else None,
        dim_abelian_variety=dim_a,
        dim_unitary=dim_u,
        dim_center=dim_c,
        dim_semisimple=dim_ss,
    )


def certify_product(params: CurveParams) -> ProductCertificate:
    """Certify all levels q = p, ..., p^r at once.

    Requires classify's product hypotheses (p odd, p coprime to n(n-1)) and
    n > q; under them every level is individually determined, and the total
    ledger is the multi-level center plus the per-level semisimple parts.
    """
    n, p, r = params.n, params.p, params.r
    conds = classify(params)
    if not (conds.product_applicable and conds.n_gt_q):
        raise ParameterError(
            f"product certification needs p odd, p coprime to n(n-1) and n > q; got {params}"
        )

    levels = tuple(certify_single(validate(n, p, i)) for i in range(1, r + 1))
    for i, cert in enumerate(levels, start=1):
        if cert.verdict is not Verdict.DETERMINED:
            raise InternalInvariantError(f"level q = {p}^{i} came back {cert.verdict.value}")

    # A trace-compatible tuple is determined by its top component, so the
    # multi-level center is the top level's center, of dimension phi(p^r)/2.
    center = levels[-1].dim_center
    total = center + sum(cert.dim_semisimple for cert in levels)
    return ProductCertificate(
        params=params,
        dim_center_product=center,
        dim_total=total,
        isogeny_note=ISOGENY_NOTE,
        levels=levels,
    )
