"""Validated curve parameters and sufficiency-condition classification.

A parameter triple (n, p, r) describes a superelliptic curve y^q = f(x)
with q = p^r, p prime, p not dividing n = deg(f), and n >= 4.  CurveParams
checks these hypotheses when it is built, so every CurveParams satisfies
them and no code downstream restates them.  The classifier evaluates, by
pure integer arithmetic, the conditions under which the Hodge group of the
new part of the jacobian is determined.
"""

from dataclasses import dataclass, field

from .errors import ParameterError

__all__ = [
    "ConditionStatus",
    "CurveParams",
    "classify",
    "is_prime",
    "validate",
]

# n and q are both capped at 2^40 so every product formed anywhere in the
# library (n*i with i < q, dimension ledgers in (n-1)^2) stays well inside
# 128 bits.  Larger inputs are rejected explicitly rather than silently
# accepted.
MAX_SUPPORTED = 1 << 40

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(m: int) -> bool:
    """Deterministic Miller-Rabin; exact for all int m < 3.3 * 10^24."""
    if type(m) is not int:
        raise ParameterError(f"m must be an int; got {type(m).__name__}")
    if m < 2:
        return False
    for sp in _MR_BASES:
        if m % sp == 0:
            return m == sp
    d = m - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def require_bounded(name: str, value: int) -> None:
    """Raise ParameterError unless value is an int, not a bool or a float
    that equals one, with |value| <= 2^40.  Run it before any check whose
    message names the value: past 64 bits the value is named by its bit
    length, as Python writes no int of more than 4,300 digits in decimal."""
    if type(value) is not int:
        raise ParameterError(f"{name} must be an int; got {type(value).__name__}")
    if abs(value) > MAX_SUPPORTED:
        shown = value if value.bit_length() <= 64 else f"a {value.bit_length()}-bit integer"
        raise ParameterError(f"{name} = {shown} exceeds the supported bound 2^40")


def require_prime(p: int) -> None:
    """Raise ParameterError unless p is a prime int of at most 2^40; the
    bound is checked first, so a huge p never reaches Miller-Rabin."""
    require_bounded("p", p)
    if not is_prime(p):
        raise ParameterError(f"p = {p} is not prime")


@dataclass(frozen=True)
class CurveParams:
    """Immutable parameters (n, p, r) with q = p^r, checked when built.

    CurveParams(n, p, r) raises ParameterError on bad input, its message
    naming the failed check; dataclasses.replace re-runs the checks.  q is
    not an argument: it is set to p^r.
    """

    n: int
    p: int
    r: int
    q: int = field(init=False)

    def __post_init__(self) -> None:
        n, p, r = self.n, self.p, self.r
        require_bounded("n", n)
        require_bounded("r", r)
        if r < 1:
            raise ParameterError(f"r = {r}; the exponent must be at least 1")
        require_prime(p)
        if n < 4:
            raise ParameterError(f"n = {n}; the degree must be at least 4")
        if n % p == 0:
            raise ParameterError(f"p = {p} divides n = {n}")
        # q = p^r is refused above 2^40; p >= 2, so r > 40 is refused before p**r.
        if r > 40:
            raise ParameterError(f"q = {p}^{r} exceeds the supported bound 2^40")
        q = p**r
        if q > MAX_SUPPORTED:
            raise ParameterError(f"q = {p}^{r} = {q} exceeds the supported bound 2^40")
        object.__setattr__(self, "q", q)

    @property
    def phi(self) -> int:
        """Euler phi of q = p^r, i.e. p^(r-1) * (p - 1)."""
        return self.q // self.p * (self.p - 1)


# validate(n, p, r) is CurveParams(n, p, r), under the name that the CLI,
# the scanner and perfbench call.
validate = CurveParams


@dataclass(frozen=True)
class ConditionStatus:
    """Outcome of classify(): which sufficiency conditions hold at (n, p, q).

    A / B / C are the three alternative conditions of the determination
    criterion (the scan columns holds_A..holds_C); theorem_applicable
    requires n > q together with at least one of them.  The field order is
    the report order.  The witness_* flags report whether the respective
    constructive witness routine applies, and product_applicable whether the
    multi-level (product) certification hypotheses on p hold.
    """

    A: bool
    B: bool
    C: bool
    n_gt_q: bool
    witness_prime_applicable: bool
    witness_prime_case: str | None
    witness_q_applicable: bool
    theorem_applicable: bool
    product_applicable: bool


def prime_route_case(n: int, p: int, q: int) -> str | None:
    """Where the odd-prime witness route applies: case "i" when q < n < 2q,
    case "ii" when p is odd and p is coprime to n - 1 or n < 2q; else None."""
    if q < n < 2 * q:
        return "i"
    if p != 2 and ((n - 1) % p != 0 or n < 2 * q):
        return "ii"
    return None


def q_route_applies(n: int, p: int, q: int) -> bool:
    """Where the general prime-power witness route applies: q does not divide
    n - 1; for p = 2 also n is not q - 1 modulo 2q."""
    # At q = 2 every valid n is odd, so q divides n - 1: no q > 2 test.
    return (n - 1) % q != 0 and (p != 2 or n % (2 * q) != q - 1)


def classify(params: CurveParams) -> ConditionStatus:
    """Evaluate every sufficiency condition literally, with no extrapolation."""
    n, p, q = params.n, params.p, params.q
    odd = p != 2

    holds_a = q < n < 2 * q
    holds_b = odd and n % q != 1
    holds_c = (not odd) and n % q != 1 and n % (2 * q) != q - 1
    n_gt_q = n > q
    case = prime_route_case(n, p, q)

    return ConditionStatus(
        A=holds_a,
        B=holds_b,
        C=holds_c,
        n_gt_q=n_gt_q,
        witness_prime_applicable=case is not None,
        witness_prime_case=case,
        witness_q_applicable=q_route_applies(n, p, q),
        theorem_applicable=n_gt_q and (holds_a or holds_b or holds_c),
        # n*(n - 1) is even, so this is false at p = 2: no test that p is odd.
        product_applicable=(n * (n - 1)) % p != 0,
    )
