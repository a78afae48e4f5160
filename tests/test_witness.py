import hashlib
import math
import re
import time
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hodgecert import (
    BezoutData,
    Branch,
    CurveParams,
    InternalInvariantError,
    ParameterError,
    Witness,
    brute_force_witness,
    certify_single,
    classify,
    constructive_witness,
    derivation_trace,
    render_json,
    to_report,
    validate,
    verify_witness,
)
from hodgecert.witness import MAX_ORACLE_Q, constructive_witness_prime, constructive_witness_q
from support import small_grid, valid_params


class TestDerivationTrace:
    def test_example_13_3_2(self):
        tr = derivation_trace(validate(13, 3, 2))
        assert (tr.k, tr.c, tr.d, tr.t, tr.d_prime, tr.q_prime) == (1, 4, 3, 3, 1, 3)
        assert tr.steps == (
            "k = floor(13/9) = 1",
            "c = 13 - 1*9 = 4",
            "d = c - 1 = 3",
            "t = gcd(3, 9) = 3",
            "d' = 3/3 = 1",
            "q' = 9/3 = 3",
        )

    def test_example_31_3_2(self):
        tr = derivation_trace(validate(31, 3, 2))
        assert (tr.k, tr.c, tr.d, tr.t, tr.d_prime, tr.q_prime) == (3, 4, 3, 3, 1, 3)

    def test_degenerate_when_q_divides_n_minus_1(self):
        tr = derivation_trace(validate(19, 3, 2))
        assert (tr.c, tr.d, tr.t) == (1, 0, 9)

    @settings(max_examples=200)
    @given(valid_params())
    def test_ranges(self, params):
        tr = derivation_trace(params)
        assert params.n == tr.k * params.q + tr.c
        assert tr.d == tr.c - 1
        if (params.n - 1) % params.q != 0:
            assert 2 <= tr.c <= params.q - 1
            assert 1 <= tr.d <= params.q - 2
            assert tr.t * tr.d_prime == tr.d and tr.t * tr.q_prime == params.q
            assert math.gcd(tr.d_prime, tr.q_prime) == 1


class TestBruteForce:
    def test_finds_smallest(self):
        w = brute_force_witness(validate(5, 3, 1))
        assert (w.i, w.floor_value, w.branch) == (1, 1, Branch.BRUTE_FORCE)

    def test_no_witness_when_q_divides_n_minus_1(self):
        assert brute_force_witness(validate(19, 3, 2)) is None

    def test_skips_shared_factors(self):
        w = brute_force_witness(validate(31, 3, 2))
        assert (w.i, w.floor_value) == (4, 13)

    def test_smallest_property(self):
        params = validate(31, 3, 2)
        w = brute_force_witness(params)
        for i in range(1, w.i):
            if i % params.p == 0:
                continue
            assert math.gcd(params.n * i // params.q, params.n - 1) != 1

    def test_refuses_q_above_oracle_bound(self):
        # witness-free (n = 2q + 1), so an unbounded scan would try all 3^24 - 1 values of i
        start = time.monotonic()
        with pytest.raises(ParameterError, match="exhaustive oracle bound .*--method constructive"):
            brute_force_witness(validate(2 * 3**24 + 1, 3, 24))
        assert time.monotonic() - start < 1.0

    def test_scans_at_oracle_bound(self):
        assert MAX_ORACLE_Q == 2**24
        assert brute_force_witness(validate(2**24 + 1, 2, 24)).i == 1
        with pytest.raises(ParameterError, match="q = 33554432 exceeds the exhaustive"):
            brute_force_witness(validate(2**25 + 1, 2, 25))


class TestConstructivePrime:
    def test_case_a(self):
        w = constructive_witness_prime(validate(5, 3, 1))
        assert (w.i, w.floor_value, w.branch) == (1, 1, Branch.CASE_A_I1)

    def test_case_a_at_prime_power(self):
        w = constructive_witness_prime(validate(11, 3, 2))
        assert (w.i, w.branch) == (1, Branch.CASE_A_I1)

    def test_case_a_even_p(self):
        w = constructive_witness_prime(validate(15, 2, 3))
        assert (w.i, w.floor_value, w.branch) == (1, 1, Branch.CASE_A_I1)

    def test_half_range(self):
        # q = 27, n = 16: 13.5 < 16 < 27
        w = constructive_witness_prime(validate(16, 3, 3))
        assert (w.i, w.floor_value, w.branch) == (2, 1, Branch.HALF_RANGE_I2)

    def test_multiplier_search(self):
        w = constructive_witness_prime(validate(11, 5, 2))
        assert (w.i, w.floor_value, w.branch) == (3, 1, Branch.MULTIPLIER_SEARCH)

    def test_multiplier_skips_p(self):
        # q = 27, n = 8: mu = ceil(27/8) = 4, not divisible by 3, i = 4
        w = constructive_witness_prime(validate(8, 3, 3))
        assert (w.i, w.branch) == (4, Branch.MULTIPLIER_SEARCH)
        # q = 9, n = 4: mu = 3 divisible by 3, so i = 4
        w2 = constructive_witness_prime(validate(4, 3, 2))
        assert (w2.i, w2.branch) == (4, Branch.MULTIPLIER_SEARCH)

    def test_modular_inverse(self):
        # n = 11, q = 3: above 2q the odd-prime route's witness is the
        # prime-power route's; d = 1, i = 1, floor = 3, gcd(3, 10) = 1
        w = constructive_witness(validate(11, 3, 1))
        assert (w.i, w.floor_value, w.branch) == (1, 3, Branch.MODULAR_INVERSE)
        assert w.determinant_check == 1
        assert constructive_witness_prime(validate(11, 3, 1)) is None

    def test_precondition_rejected(self):
        # p even and outside (q, 2q)
        assert constructive_witness_prime(validate(21, 2, 3)) is None
        # p odd but p | n - 1 and n > 2q
        assert constructive_witness_prime(validate(31, 3, 2)) is None


class TestConstructiveQ:
    def test_bezout_base(self):
        w = constructive_witness_q(validate(13, 3, 2))
        assert (w.i, w.floor_value, w.branch) == (1, 1, Branch.BEZOUT_CANDIDATE_0)
        assert (w.bezout.d_prime, w.bezout.q_prime, w.bezout.j) == (1, 3, 0)
        assert w.determinant_check == 3

    def test_bezout_shifted(self):
        w = constructive_witness_q(validate(31, 3, 2))
        assert (w.i, w.floor_value, w.branch) == (4, 13, Branch.BEZOUT_CANDIDATE_1)
        assert w.determinant_check == 3

    def test_power_of_two(self):
        w = constructive_witness_q(validate(15, 2, 3))
        assert (w.i, w.floor_value, w.branch) == (3, 5, Branch.POWER2_SPECIAL)
        assert math.gcd(w.floor_value, 14) == 1

    def test_delegates_to_inverse(self):
        w = constructive_witness_q(validate(11, 3, 1))
        assert (w.i, w.branch) == (1, Branch.MODULAR_INVERSE)

    def test_rejects_q_dividing_n_minus_1(self):
        assert constructive_witness_q(validate(19, 3, 2)) is None

    def test_rejects_p2_bad_residue(self):
        # n = 7 = q - 1 mod 2q at q = 8
        assert constructive_witness_q(validate(7, 2, 3)) is None
        assert constructive_witness_q(validate(5, 2, 1)) is None


class TestConstructiveWitness:
    def test_picks_the_route(self):
        for params in small_grid(max_q=81, max_n=120):
            conds = classify(params)
            w = constructive_witness(params)
            if conds.witness_prime_applicable and params.n < 2 * params.q:
                assert w == constructive_witness_prime(params)
            elif conds.witness_q_applicable:
                assert w == constructive_witness_q(params)
            else:  # above 2q the odd-prime route applies only where the prime-power one does
                assert w is None and not conds.witness_prime_applicable

    def test_builders_return_none_exactly_off_their_domain(self):
        """Each route builder returns None exactly off its domain, stated here
        from (n, p, q) alone, and elsewhere a witness that verify_witness accepts."""
        built = Counter()
        for params in small_grid():
            n, p, q = params.n, params.p, params.q
            floor_one = n < 2 * q and (p != 2 or n > q)
            prime_power = (n - 1) % q != 0 and (p != 2 or n % (2 * q) != q - 1)
            for builder, applies in (
                (constructive_witness_prime, floor_one),
                (constructive_witness_q, prime_power),
            ):
                w = builder(params)
                assert (w is not None) == applies, (builder.__name__, params)
                if w is not None:
                    assert verify_witness(params, w), (builder.__name__, params, w)
                    built[builder.__name__] += 1
        assert built == {"constructive_witness_prime": 862, "constructive_witness_q": 3180}  # of 3,863


class TestVerifiedExit:
    @pytest.mark.parametrize(
        "produce, point, branch",
        [
            (constructive_witness_prime, (5, 3, 1), Branch.CASE_A_I1),
            (constructive_witness_q, (31, 3, 2), Branch.BEZOUT_CANDIDATE_1),
            (brute_force_witness, (5, 3, 1), Branch.BRUTE_FORCE),
        ],
        ids=["constructive_witness_prime", "constructive_witness_q", "brute_force_witness"],
    )
    def test_rejected_witness_raises(self, produce, point, branch, monkeypatch):
        """Every producer returns only what verify_witness accepts; a rejection
        names the branch and the point."""
        import hodgecert.witness

        monkeypatch.setattr(hodgecert.witness, "verify_witness", lambda params, w: False)
        n, p, r = point
        where = f"at n = {n}, p = {p}, r = {r}$"
        with pytest.raises(InternalInvariantError, match=f"^{branch.value} witness .* {where}"):
            produce(validate(n, p, r))


class TestVerify:
    def test_accepts_constructed(self):
        params = validate(31, 3, 2)
        assert verify_witness(params, constructive_witness_q(params))

    def test_rejects_wrong_floor(self):
        params = validate(19, 3, 2)
        w = Witness(i=1, floor_value=2, branch=Branch.BRUTE_FORCE)
        assert not verify_witness(params, w)  # gcd(2, 18) = 2

    def test_rejects_i_out_of_range(self):
        params = validate(5, 3, 1)
        assert not verify_witness(params, Witness(i=3, floor_value=5, branch=Branch.BRUTE_FORCE))
        assert not verify_witness(params, Witness(i=0, floor_value=0, branch=Branch.BRUTE_FORCE))

    def test_rejects_branch_mismatch(self):
        params = validate(5, 3, 1)
        # i = 2 is a fine witness but not the one CaseA constructs
        assert not verify_witness(params, Witness(i=2, floor_value=3, branch=Branch.CASE_A_I1))

    def test_rejects_forged_bezout(self):
        params = validate(31, 3, 2)
        good = constructive_witness_q(params)
        forged = Witness(
            i=good.i,
            floor_value=good.floor_value,
            branch=good.branch,
            bezout=BezoutData(d_prime=2, q_prime=3, j=0),
            determinant_check=good.determinant_check,
        )
        assert not verify_witness(params, forged)

    def test_rejects_each_forgery_on_grid(self):
        hits = Counter()
        for params in small_grid(max_q=64, max_n=130):
            for check, w in forged_witnesses(params):
                assert not verify_witness(params, w), (check, params, w)
                hits[check] += 1
        assert set(hits) == set(FORGERIES)

    # The verifier reads only parameters that CurveParams checked when it
    # built them: q = p^r, p prime, n >= 4 and p not dividing n.  So it has
    # no test of d >= 1, of p | d beside t > 1, or of Power2Special's k even.
    # Each case is a forgery that once reached one of those tests through a
    # hand-built q; now q cannot be passed, and (n, p, r) alone is refused
    # or gives q = p^r, where the witness is refused.
    @pytest.mark.parametrize(
        "n, p, r, q, w, refusal",
        [
            (4, 3, 1, 5, Witness(2, 1, Branch.BEZOUT_CANDIDATE_0, determinant_check=1), None),
            (8, 2, 1, 3, Witness(1, 2, Branch.POWER2_SPECIAL), "p = 2 divides n = 8"),
            (4, 3, 1, 5, Witness(2, 1, Branch.MODULAR_INVERSE, determinant_check=1), None),
            (10, 3, 1, 5, Witness(4, 8, Branch.MODULAR_INVERSE, determinant_check=1), None),
            (14, 2, 1, 5, Witness(1, 2, Branch.POWER2_SPECIAL), "p = 2 divides n = 14"),
        ],
        ids=[
            "Bezout with t < 2",
            "Power2Special at odd k",
            "ModularInverse with p | d",
            "ModularInverse at d < 1",
            "Power2Special at odd k only",
        ],
    )
    def test_rejects_forgery_beyond_validated_params(self, n, p, r, q, w, refusal):
        with pytest.raises(TypeError, match="unexpected keyword argument 'q'"):
            CurveParams(n=n, p=p, r=r, q=q)
        if refusal is None:
            params = CurveParams(n, p, r)
            assert params.q == p**r
            assert not verify_witness(params, w)
        else:
            with pytest.raises(ParameterError, match=f"^{re.escape(refusal)}$"):
                CurveParams(n, p, r)

    def test_params_beyond_validation_cannot_be_built(self):
        # so verify_witness never divides by n = 0
        with pytest.raises(ParameterError, match="^n = 0; the degree must be at least 4$"):
            CurveParams(0, 3, 1)
        with pytest.raises(ParameterError, match="^p = 3 divides n = 9$"):
            replace(validate(5, 3, 1), n=9)


FORGERIES = (
    "i below 1",
    "i beyond q - 1",
    "i shares p",
    "floor value",
    "unknown branch",
    "CaseA_i1 above 2q",
    "MultiplierSearch range",
    "MultiplierSearch multiplier",
    "MultiplierSearch at mu + 1",
    "ModularInverse with p | d",
    "ModularInverse relabelled BezoutCandidate0",
    "BezoutCandidate0 relabelled ModularInverse",
    "ModularInverse with Bezout data",
    "ModularInverse at a non-inverse i",
    "Bezout with p coprime to d",
    "Bezout candidate",
    "Bezout base out of range",
    "Bezout base above q' - 1",
    "determinant check",
    "Bezout floor correction",
    "Power2Special off q | n + 1",
    "Power2Special at another i",
)


def forged_witnesses(params):
    """Yield (check, witness) forged to pass every check verify_witness makes
    before the named one and to fail that one.  One forgery is valid by
    design and left out: any verified witness relabelled BruteForce."""
    n, p, q = params.n, params.p, params.q
    tr = derivation_trace(params)
    d = tr.d
    oracle = brute_force_witness(params)
    conds = classify(params)
    built = constructive_witness(params)
    for i in range(-1, -q, -1):
        if i % p and math.gcd(n * i // q, n - 1) == 1:
            yield "i below 1", Witness(i, n * i // q, Branch.BRUTE_FORCE)
            break
    for i in range(q + 1, 2 * q):
        if i % p and math.gcd(n * i // q, n - 1) == 1:
            yield "i beyond q - 1", Witness(i, n * i // q, Branch.BRUTE_FORCE)
            break
    if q > p:
        yield "i shares p", Witness(p, n * p // q, Branch.BRUTE_FORCE)
    if n > 2 * q and math.gcd(n // q, n - 1) == 1:
        yield "CaseA_i1 above 2q", Witness(1, n // q, Branch.CASE_A_I1)
    if oracle is not None:  # then q does not divide n - 1, so d >= 1
        yield "floor value", replace(oracle, floor_value=oracle.floor_value + 1)
        yield "unknown branch", replace(oracle, branch=oracle.branch.value)
        if p == 2 or 2 * n >= q:
            yield "MultiplierSearch range", replace(oracle, branch=Branch.MULTIPLIER_SEARCH)
        if d % p == 0:
            yield "ModularInverse with p | d", replace(oracle, branch=Branch.MODULAR_INVERSE)
        else:
            yield "Bezout with p coprime to d", replace(oracle, branch=Branch.BEZOUT_CANDIDATE_0)
        if p != 2 or (n + 1) % q:
            yield "Power2Special off q | n + 1", replace(oracle, branch=Branch.POWER2_SPECIAL)
        elif oracle.i != q // 2 - 1:  # k = (n + 1)/q is even, or no i would pass
            yield "Power2Special at another i", replace(oracle, branch=Branch.POWER2_SPECIAL)
        if tr.t == 1 and d * oracle.i % q != 1:
            forged = replace(oracle, branch=Branch.MODULAR_INVERSE, determinant_check=1)
            yield "ModularInverse at a non-inverse i", forged
    if p != 2 and 2 * n < q:
        mu = -(-q // n)
        if mu % p and (mu + 1) % p:  # floor(n*(mu + 1)/q) = 1, but mu is the smallest
            yield "MultiplierSearch at mu + 1", Witness(mu + 1, 1, Branch.MULTIPLIER_SEARCH)
        for i in range(mu + 2, q):
            if i % p and math.gcd(n * i // q, n - 1) == 1:
                yield "MultiplierSearch multiplier", Witness(i, n * i // q, Branch.MULTIPLIER_SEARCH)
                break
    swapped = {
        Branch.BEZOUT_CANDIDATE_0: Branch.BEZOUT_CANDIDATE_1,
        Branch.BEZOUT_CANDIDATE_1: Branch.BEZOUT_CANDIDATE_0,
    }
    if built is not None and built.branch in swapped:
        other = swapped[built.branch]
        yield "Bezout candidate", replace(built, branch=other)
        # the other label's base i0 = i -/+ q' solves d'*i0 - q'*(j -/+ d') = 1 too
        if built.branch is Branch.BEZOUT_CANDIDATE_0:
            bez = replace(built.bezout, j=built.bezout.j - tr.d_prime)
            yield "Bezout base out of range", replace(built, branch=other, bezout=bez)
        elif tr.t + built.i + tr.q_prime < q:  # so the floor correction still vanishes
            bez = replace(built.bezout, j=built.bezout.j + tr.d_prime)
            yield "Bezout base above q' - 1", replace(built, branch=other, bezout=bez)
    if built is not None and built.determinant_check is not None:
        yield "determinant check", replace(built, determinant_check=built.determinant_check + 1)
    if built is not None and built.branch is Branch.MODULAR_INVERSE:
        j = (d * built.i - 1) // q  # the t = 1 solution of d*i - q*j = 1
        yield "ModularInverse with Bezout data", replace(built, bezout=BezoutData(d, q, j))
    # At t = 1 the base solution is i = d^-1 mod q itself, so the two labels
    # differ only in the test that ModularInverse holds exactly at t = 1.
    relabelled = {
        Branch.MODULAR_INVERSE: Branch.BEZOUT_CANDIDATE_0,
        Branch.BEZOUT_CANDIDATE_0: Branch.MODULAR_INVERSE,
    }
    if conds.witness_q_applicable:
        via_q = constructive_witness_q(params)
        if via_q.branch in relabelled:
            other = relabelled[via_q.branch]
            check = f"{via_q.branch.value} relabelled {other.value}"
            yield check, replace(via_q, branch=other)
    if d >= 1 and tr.t > 1:
        # the base solution of d'*i - q'*j = 1 where only floor((t + i + q')/q) = 0 fails
        dp, qp = tr.d_prime, tr.q_prime
        i0 = pow(dp, -1, qp)
        j0 = (dp * i0 - 1) // qp
        fv = n * i0 // q
        if fv == tr.k * i0 + j0 and math.gcd(fv, n - 1) == 1 and tr.t + i0 + qp >= q:
            bez = BezoutData(dp, qp, j0)
            yield "Bezout floor correction", Witness(
                i0, fv, Branch.BEZOUT_CANDIDATE_0, determinant_check=d * i0 - q * j0, bezout=bez
            )


# ---------- sweeps and properties ----------


def test_soundness_small_grid():
    """Constructive witnesses verify and agree with the oracle on a small grid."""
    checked_prime = checked_q = 0
    for params in small_grid(max_q=128, max_n=300):
        cs = classify(params)
        oracle = None
        if cs.witness_prime_applicable and params.n < 2 * params.q:
            w = constructive_witness_prime(params)
            assert verify_witness(params, w), params
            oracle = brute_force_witness(params)
            assert oracle is not None, params
            checked_prime += 1
        if cs.witness_q_applicable:
            w = constructive_witness_q(params)
            assert verify_witness(params, w), params
            if oracle is None:
                oracle = brute_force_witness(params)
            assert oracle is not None, params
            checked_q += 1
    assert checked_prime > 500 and checked_q > 500


def test_witness_and_certificate_bytes_pinned_on_small_grid():
    """Scan rows omit bezout and determinant_check; this pins every witness
    field, and the certificate carrying it, at each small_grid point."""
    digest = hashlib.sha256()
    branches, bumped = set(), 0
    for params in small_grid():
        w = constructive_witness(params)
        digest.update(render_json(to_report(w)))
        if params.q > 2:
            digest.update(render_json(to_report(certify_single(params))))
        if w is not None:
            branches.add(w.branch)
            bumped += w.branch is Branch.MULTIPLIER_SEARCH and w.i == -(-params.q // params.n) + 1
    assert digest.hexdigest() == (
        "397df21143cee3db9439b46a7ba89a3683ba626235adc38dc3f6f5eaecb4e4d4"
    )
    # the pin covers every constructive branch, the floor-one rule's bump included
    assert branches == set(Branch) - {Branch.BRUTE_FORCE}
    assert bumped >= 1


def test_no_witness_family_small():
    """No witness exists exactly where n = k*q + 1 with k >= 2, or p = 2 and
    n = q - 1 mod 2q; there g = k, or 2, divides n - 1 and every admissible
    floor(n*i/q), so no floor is coprime to n - 1."""
    none = 0
    for params in small_grid():
        n, p, q = params.n, params.p, params.q
        k, c = divmod(n, q)
        kq_plus_1 = c == 1 and k >= 2
        odd_k_power2 = p == 2 and n % (2 * q) == q - 1
        oracle = brute_force_witness(params)
        assert (oracle is None) == (kq_plus_1 or odd_k_power2), params
        if oracle is None:
            none += 1
            g = k if kq_plus_1 else 2
            assert (n - 1) % g == 0
            assert all(n * i // q % g == 0 for i in range(1, q) if i % p), params
    assert none == 665  # of the 3,863 points


@settings(max_examples=200)
@given(valid_params(max_q=729, max_n=2000), st.integers(min_value=1, max_value=10**6))
def test_complement_symmetry(params, raw_i):
    n, p, q = params.n, params.p, params.q
    if q == 2:
        return
    i = raw_i % q
    if i == 0 or i % p == 0:
        return
    assert n * i // q + n * (q - i) // q == n - 1


@settings(max_examples=300)
@given(valid_params(max_q=729, max_n=3000))
def test_constructive_prime_sound(params):
    cs = classify(params)
    w = constructive_witness_prime(params)
    if not (cs.witness_prime_applicable and params.n < 2 * params.q):
        assert w is None
        return
    assert verify_witness(params, w)


@settings(max_examples=300)
@given(valid_params(max_q=729, max_n=3000))
def test_constructive_witness_sound(params):
    """The decision's witness verifies, and it is None exactly where the
    oracle finds no witness."""
    w = constructive_witness(params)
    assert (w is None) == (brute_force_witness(params) is None)
    if w is not None:
        assert verify_witness(params, w)


@settings(max_examples=300)
@given(valid_params(max_q=729, max_n=3000))
def test_constructive_q_sound(params):
    cs = classify(params)
    w = constructive_witness_q(params)
    if not cs.witness_q_applicable:
        assert w is None
        return
    assert verify_witness(params, w)
