"""Coprimality witnesses.

A witness for (n, p, q) is an integer i with 1 <= i <= q - 1, gcd(i, p) = 1,
and gcd(floor(n*i/q), n - 1) = 1.  Such an i certifies that the semisimple
part of the Hodge group of the new part is everything the Hermitian form
allows.  Witnesses are produced two ways: constructively (below 2q, the
smallest i prime to p with n*i > q, so floor(n*i/q) = 1; elsewhere solutions
of d*i - q*j = t with t = gcd(d, q), whose t = 1 case is i = d^-1 mod q) and
by an exhaustive scan used as an independent oracle.  constructive_witness
decides which constructive witness a point gets from (n, p, q) alone.

Every producer returns a verified witness, else None.  Each route builder
states its own domain, from the predicates in params, and returns None off
it; the builders only construct, and return through one exit, _verified:
verify_witness recomputes each invariant of the witness and of its branch
from scratch, and a witness it rejects raises InternalInvariantError naming
the branch and the point.
"""

import math
from dataclasses import dataclass
from enum import Enum

from .errors import InternalInvariantError, ParameterError
from .params import CurveParams, prime_route_case, q_route_applies

__all__ = [
    "BezoutData",
    "Branch",
    "DerivationTrace",
    "Witness",
    "brute_force_witness",
    "constructive_witness",
    "derivation_trace",
    "verify_witness",
]

# Largest q the exhaustive oracle scans (about 0.2 us per i, so seconds here).
MAX_ORACLE_Q = 1 << 24


class Branch(Enum):
    """How a witness was obtained."""

    # Below 2q one floor-one rule, i = ceil(q/n) plus one if p divides it;
    # the three labels name the range of n.
    CASE_A_I1 = "CaseA_i1"                  # q < n < 2q, so i = 1
    HALF_RANGE_I2 = "HalfRange_i2"          # p odd, q/2 < n < q, so i = 2
    MULTIPLIER_SEARCH = "MultiplierSearch"  # p odd, n < q/2
    MODULAR_INVERSE = "ModularInverse"      # t = 1 Bezout solution: i = d^-1 mod q
    BEZOUT_CANDIDATE_0 = "BezoutCandidate0"  # t > 1: base solution i = d'^-1 mod q'
    BEZOUT_CANDIDATE_1 = "BezoutCandidate1"  # t > 1: base solution shifted by q'
    POWER2_SPECIAL = "Power2Special"        # p = 2 and q divides n + 1
    BRUTE_FORCE = "BruteForce"              # exhaustive oracle scan


FLOOR_ONE_BRANCHES = (Branch.CASE_A_I1, Branch.HALF_RANGE_I2, Branch.MULTIPLIER_SEARCH)


@dataclass(frozen=True)
class BezoutData:
    """Base solution of d'*i - q'*j = 1 with 0 < i <= q' - 1, j >= 0."""

    d_prime: int
    q_prime: int
    j: int


@dataclass(frozen=True)
class Witness:
    # Fields in report order: scanner.to_report writes them as declared.
    i: int
    floor_value: int
    branch: Branch
    determinant_check: int | None = None
    bezout: BezoutData | None = None


@dataclass(frozen=True)
class DerivationTrace:
    """The derived quantities k, c, d, t, d', q' for a parameter point.

    k = floor(n/q), c = n - k*q, d = c - 1, t = gcd(d, q), d' = d/t,
    q' = q/t.  Whenever q does not divide n - 1 these satisfy
    2 <= c <= q - 1 and 1 <= d <= q - 2.
    """

    k: int
    c: int
    d: int
    t: int
    d_prime: int
    q_prime: int

    @property
    def steps(self) -> tuple[str, ...]:
        """Each derivation step as text, rebuilt from q = t*q' and n = k*q + c."""
        k, c, d, t = self.k, self.c, self.d, self.t
        q = t * self.q_prime
        n = k * q + c
        return (
            f"k = floor({n}/{q}) = {k}",
            f"c = {n} - {k}*{q} = {c}",
            f"d = c - 1 = {d}",
            f"t = gcd({d}, {q}) = {t}",
            f"d' = {d}/{t} = {self.d_prime}",
            f"q' = {q}/{t} = {self.q_prime}",
        )


def derivation_trace(params: CurveParams) -> DerivationTrace:
    """Compute k, c, d, t, d', q' for params."""
    q = params.q
    k, c = divmod(params.n, q)
    d = c - 1
    t = math.gcd(d, q)  # gcd(0, q) = q when q divides n - 1
    return DerivationTrace(k=k, c=c, d=d, t=t, d_prime=d // t, q_prime=q // t)


def _verified(params: CurveParams, w: Witness) -> Witness:
    """w, once verify_witness accepts it: the one exit of every producer."""
    if not verify_witness(params, w):
        raise InternalInvariantError(
            f"{w.branch.value} witness i = {w.i} failed verification at "
            f"n = {params.n}, p = {params.p}, r = {params.r}"
        )
    return w


def brute_force_witness(params: CurveParams) -> Witness | None:
    """Smallest admissible i found by scanning 1..q-1, verified, or None.

    Serves as the independent oracle for the constructive routines.  Refuses
    q > MAX_ORACLE_Q up front, since the scan is linear in q.
    """
    n, p, q = params.n, params.p, params.q
    if q > MAX_ORACLE_Q:
        raise ParameterError(
            f"q = {q} exceeds the exhaustive oracle bound {MAX_ORACLE_Q}; "
            "witness and scan skip the oracle with --method constructive"
        )
    n1 = n - 1
    gcd = math.gcd
    for i in range(1, q):
        if i % p == 0:
            continue
        fv = n * i // q
        if gcd(fv, n1) == 1:
            return _verified(params, Witness(i=i, floor_value=fv, branch=Branch.BRUTE_FORCE))
    return None


def constructive_witness_prime(params: CurveParams) -> Witness | None:
    """The odd-prime route's floor-one witness, below 2q where prime_route_case
    allows it, verified; else None.  Above 2q the route applies only where p is
    odd and coprime to n - 1, so t = 1: its witness is the prime-power route's
    ModularInverse."""
    n, p, q = params.n, params.p, params.q
    if n > 2 * q or prime_route_case(n, p, q) is None:
        return None
    # p is odd unless q < n.  The smallest i prime to p with n*i > q.  floor(n*i/q) = 1:
    # q < mu*n < q + n as p does not divide n, and if p divides mu, then mu > 2, so (mu + 1)*n < 2q.
    mu = -(-q // n)  # ceil(q/n)
    i = mu + (mu % p == 0)
    if n > q:
        branch = Branch.CASE_A_I1
    else:
        branch = Branch.HALF_RANGE_I2 if 2 * n > q else Branch.MULTIPLIER_SEARCH
    return _verified(params, Witness(i=i, floor_value=n * i // q, branch=branch))


def constructive_witness_q(params: CurveParams) -> Witness | None:
    """The prime-power route's witness where q_route_applies allows it,
    verified; else None.  At p = 2 and q | n + 1 it is i = q/2 - 1; otherwise
    it solves d'*i - q'*j = 1, so d*i - q*j = t, from i0 = d'^-1 mod q': i0
    itself at t = 1 (ModularInverse), else i0, then i0 + q' (BezoutCandidate0/1)."""
    n, p, q = params.n, params.p, params.q
    if not q_route_applies(n, p, q):
        return None
    if p == 2 and (n + 1) % q == 0:  # then d = q - 2, so p | d; take i = q/2 - 1
        i = q // 2 - 1
        return _verified(params, Witness(i=i, floor_value=n * i // q, branch=Branch.POWER2_SPECIAL))

    tr = derivation_trace(params)
    t, dp, qp = tr.t, tr.d_prime, tr.q_prime
    assert tr.d >= 1  # so t <= d < q: q' >= 2 is a power of p, coprime to d'

    i0 = pow(dp, -1, qp)  # unique solution with 0 < i0 <= q' - 1
    j0 = (dp * i0 - 1) // qp
    if t == 1:
        bez, candidates = None, ((0, Branch.MODULAR_INVERSE),)
    else:
        bez = BezoutData(d_prime=dp, q_prime=qp, j=j0)
        candidates = ((0, Branch.BEZOUT_CANDIDATE_0), (1, Branch.BEZOUT_CANDIDATE_1))

    for eps, branch in candidates:
        i = i0 + eps * qp
        fv = n * i // q
        if math.gcd(fv, n - 1) == 1:  # d*i - q*(j0 + eps*d') = t*(d'*i0 - q'*j0) = t
            w = Witness(i=i, floor_value=fv, branch=branch, bezout=bez, determinant_check=t)
            return _verified(params, w)
    raise InternalInvariantError(f"no inverse candidate passed at n = {n}, p = {p}, q = {q}")


def _verify_branch(params: CurveParams, w: Witness) -> bool:
    """Branch-specific invariants, recomputed from scratch; the oracle's
    branch (one per scanned point) first, then frequent branches."""
    br = w.branch
    if br is Branch.BRUTE_FORCE:
        return True

    n, p, q = params.n, params.p, params.q
    inverse = br is Branch.MODULAR_INVERSE
    if inverse or br is Branch.BEZOUT_CANDIDATE_0 or br is Branch.BEZOUT_CANDIDATE_1:
        tr = derivation_trace(params)
        t, dp, qp = tr.t, tr.d_prime, tr.q_prime
        # ModularInverse at t = 1, a Bezout candidate at t > 1.  As q is a power
        # of p, t > 1 exactly when p | d, and at d = 0 (t = q, q' = 1) no i0 lies
        # in 1..q' - 1 below: neither needs a test of its own.
        if inverse != (t == 1):
            return False
        eps = 1 if br is Branch.BEZOUT_CANDIDATE_1 else 0
        i0 = w.i - eps * qp
        if not (1 <= i0 <= qp - 1 and dp * i0 % qp == 1):
            return False
        j0 = (dp * i0 - 1) // qp
        if w.bezout != (None if t == 1 else BezoutData(d_prime=dp, q_prime=qp, j=j0)):
            return False
        # d*i - q*j = t*(d'*i0 - q'*j0) = t for j = j0 + eps*d', so floor(n*i/q) =
        # k*i + j + floor((t + i)/q), whose last term is 0: at t = 1, i = q - 1 would
        # need d = -1 mod q, off 1 <= d <= q - 2; at t > 1, t + i <= t + i0 + q' < q.
        return w.determinant_check == t and (t == 1 or t + i0 + qp < q)

    if br is Branch.CASE_A_I1 or br is Branch.HALF_RANGE_I2 or br is Branch.MULTIPLIER_SEARCH:
        # Floor one (so n < 2q) at i = ceil(q/n), plus one if p divides it; p odd unless q < n.
        mu = -(-q // n)
        if n > q:
            label = Branch.CASE_A_I1
        else:
            label = Branch.HALF_RANGE_I2 if 2 * n > q else Branch.MULTIPLIER_SEARCH
        return w.floor_value == 1 and w.i == mu + (mu % p == 0) and (p != 2 or n > q) and br is label

    # n = k*q - 1 gives floor(n*i/q) = k*i - 1; at q <= 2, i = q/2 - 1 is out of range.
    # Odd k is n = q - 1 mod 2q, where no i passes the gcd check: no test that k is even.
    if br is not Branch.POWER2_SPECIAL or p != 2 or (n + 1) % q != 0:
        return False  # an unknown branch, or Power2Special off q | n + 1
    return w.i == q // 2 - 1


def verify_witness(params: CurveParams, w: Witness) -> bool:
    """Recompute every witness invariant independently; True iff all hold."""
    n, p, q = params.n, params.p, params.q
    if not 1 <= w.i <= q - 1:
        return False
    if math.gcd(w.i, p) != 1:
        return False
    if w.floor_value != n * w.i // q:
        return False
    if math.gcd(w.floor_value, n - 1) != 1:
        return False
    return _verify_branch(params, w)


def constructive_witness(params: CurveParams) -> Witness | None:
    """The verified witness at params, or None where no constructive route
    applies: the floor-one rule below 2q, else the prime-power route."""
    return constructive_witness_prime(params) or constructive_witness_q(params)
