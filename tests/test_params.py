import math
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hodgecert import (
    CurveParams,
    ParameterError,
    ScanSpec,
    classify,
    is_prime,
    run_remark_check,
    validate,
)

from support import valid_params


class TestIsPrime:
    def test_small_values(self):
        expected = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
        for m in range(50):
            assert is_prime(m) == (m in expected)

    def test_carmichael_numbers_rejected(self):
        for m in (561, 1105, 1729, 2465, 2821, 6601):
            assert not is_prime(m)

    def test_large_prime_and_neighbor(self):
        assert is_prime((1 << 31) - 1)  # Mersenne
        assert not is_prime((1 << 31) - 3)

    @pytest.mark.parametrize(
        "m",
        [
            41 * 43,
            1000003 * 1000033,
            151 * 751 * 28351,  # strong pseudoprime to bases 2, 3, 5 and 7
            149491 * 747451 * 34233211,  # strong pseudoprime to every base up to 23
        ],
    )
    def test_composites_past_trial_division_rejected(self, m):
        # no factor of 37 or less, so only the Miller-Rabin rounds can answer
        assert not is_prime(m)

    def test_matches_trial_division(self):
        def by_trial_division(m):
            return m >= 2 and all(m % f for f in range(2, math.isqrt(m) + 1))

        assert [is_prime(m) for m in range(-5, 20000)] == [
            by_trial_division(m) for m in range(-5, 20000)
        ]

    @pytest.mark.parametrize("m", [7.0, 1e13 + 37, True, "7"])
    def test_refuses_non_int(self, m):
        # a float that equals a prime is not a prime, and a bool is not an int here
        with pytest.raises(ParameterError, match=f"^m must be an int; got {type(m).__name__}$"):
            is_prime(m)


class TestValidate:
    def test_basic_point(self):
        params = validate(5, 3, 1)
        assert (params.n, params.p, params.r, params.q) == (5, 3, 1, 3)
        assert params.phi == 2

    def test_prime_power(self):
        assert validate(19, 3, 2).q == 9
        assert validate(7, 2, 3).q == 8
        assert validate(7, 2, 3).phi == 4

    def test_divides_degree(self):
        with pytest.raises(ParameterError, match="p = 3 divides n = 9"):
            validate(9, 3, 1)

    def test_not_prime(self):
        with pytest.raises(ParameterError, match="p = 4 is not prime"):
            validate(10, 4, 1)

    def test_p_above_2_40_refused_before_primality(self):
        # a 4,290-digit composite with no factor below 41: Miller-Rabin on it
        # takes seconds
        start = time.monotonic()
        with pytest.raises(ParameterError, match="p = a .*-bit integer exceeds the"):
            validate(5, 41**2660, 1)
        assert time.monotonic() - start < 1.0

    def test_degree_too_small(self):
        with pytest.raises(ParameterError, match="n = 3; the degree must be at least 4"):
            validate(3, 2, 1)

    def test_exponent_too_small(self):
        with pytest.raises(ParameterError, match="r = 0; the exponent must be at least 1"):
            validate(5, 3, 0)

    def test_q_bound(self):
        with pytest.raises(ParameterError, match=r"q = 3\^30 = .* exceeds the supported bound"):
            validate(5, 3, 30)  # 3^30 > 2^40
        with pytest.raises(ParameterError, match=r"q = 2\^41 exceeds the supported bound"):
            validate(5, 2, 41)
        assert validate(5, 2, 40).q == 1 << 40

    def test_n_bound(self):
        with pytest.raises(ParameterError, match="n = 1099511627777 exceeds the supported bound"):
            validate((1 << 40) + 1, 3, 1)

    def test_huge_exponent_rejected_quickly(self):
        with pytest.raises(ParameterError, match=r"q = 3\^1000000000 exceeds the supported bound"):
            validate(5, 3, 10**9)

    def test_validate_is_the_constructor(self):
        assert validate is CurveParams
        assert validate(5, 3, 1) == CurveParams(5, 3, 1)

    @settings(max_examples=500)
    @given(st.integers(-3, 300), st.integers(-2, 60), st.integers(-2, 6))
    def test_built_exactly_where_the_hypotheses_hold(self, n, p, r):
        """Within this box (q <= 60^6 < 2^40) CurveParams(n, p, r) refuses
        exactly the triples off r >= 1, p prime, n >= 4 and p not dividing n,
        and what it builds has q = p^r."""
        prime = p >= 2 and all(p % f for f in range(2, p))
        try:
            params = CurveParams(n, p, r)
        except ParameterError:
            assert not (r >= 1 and prime and n >= 4 and n % p != 0)
            return
        assert r >= 1 and prime and n >= 4 and n % p != 0
        assert (params.n, params.p, params.r, params.q) == (n, p, r, p**r)


# More than 4,300 digits: Python refuses to write these ints in decimal, so
# a refusal that formats one raises a plain ValueError instead.
HUGE = 10**5000


@pytest.mark.parametrize(
    "call",
    [
        lambda: validate(HUGE, 3, 1),
        lambda: validate(3 * HUGE, 3, 1),
        lambda: validate(-HUGE, 3, 1),
        lambda: validate(5, 41**3000, 1),
        lambda: validate(5, 3, HUGE),
        lambda: validate(5, 3, -HUGE),
        lambda: ScanSpec(4, HUGE, (3,), 1),
        lambda: run_remark_check(HUGE),
    ],
    ids=[
        "validate-n",
        "validate-n-divisible",
        "validate-n-negative",
        "validate-p",
        "validate-r",
        "validate-r-negative",
        "scanspec-n-max",
        "remark-check-n-max",
    ],
)
def test_huge_int_refused_as_parameter_error(call):
    with pytest.raises(ParameterError):
        call()


# argparse hands the CLI ints, but a library caller may pass anything: a
# float or a bool compares equal to an int and would pass every later check.
@pytest.mark.parametrize("kind", [float, bool, str])
@pytest.mark.parametrize("name", ["n", "p", "r"])
def test_validate_refuses_non_int(name, kind):
    args = {"n": 5, "p": 3, "r": 1}
    args[name] = kind(args[name])
    with pytest.raises(ParameterError, match=f"^{name} must be an int; got {kind.__name__}$"):
        validate(**args)


class TestClassify:
    def test_example_5_3_1(self):
        cs = classify(validate(5, 3, 1))
        assert cs.A and cs.B and not cs.C
        assert cs.theorem_applicable

    def test_example_19_3_2(self):
        cs = classify(validate(19, 3, 2))
        assert not cs.A  # 19 >= 18
        assert not cs.B  # 19 = 1 mod 9
        assert not cs.C
        assert not cs.theorem_applicable

    def test_example_15_2_3(self):
        # 8 < 15 < 16, so A holds by its literal definition; C holds since
        # 15 != 1 mod 8 and 15 != 7 mod 16.
        cs = classify(validate(15, 2, 3))
        assert cs.A
        assert cs.C
        assert not cs.B
        assert cs.theorem_applicable

    def test_q2_conditions(self):
        # At q = 2 every odd n is 1 mod q, so B and C can never hold.
        for n in (5, 7, 9, 11):
            cs = classify(validate(n, 2, 1))
            assert not cs.A and not cs.B and not cs.C
            assert not cs.theorem_applicable

    def test_witness_prime_cases(self):
        assert classify(validate(5, 3, 1)).witness_prime_case == "i"
        assert classify(validate(11, 5, 2)).witness_prime_case == "ii"
        assert classify(validate(31, 3, 2)).witness_prime_case is None

    def test_witness_q_flag(self):
        assert classify(validate(31, 3, 2)).witness_q_applicable
        assert not classify(validate(19, 3, 2)).witness_q_applicable  # 9 | 18
        # p = 2: n = 7 is q - 1 = 7 mod 16 at q = 8
        assert not classify(validate(7, 2, 3)).witness_q_applicable
        assert classify(validate(15, 2, 3)).witness_q_applicable

    def test_product_flag(self):
        assert classify(validate(11, 3, 2)).product_applicable
        assert not classify(validate(19, 3, 2)).product_applicable  # 3 | 18
        assert not classify(validate(4, 3, 1)).product_applicable  # 3 | 3
        assert not classify(validate(15, 2, 3)).product_applicable  # p even


@settings(max_examples=200)
@given(valid_params())
def test_condition_a_literal(params):
    cs = classify(params)
    assert cs.A == (params.q < params.n < 2 * params.q)
    if cs.A:
        assert cs.n_gt_q


@settings(max_examples=200)
@given(valid_params())
def test_theorem_flag_composition(params):
    cs = classify(params)
    assert cs.theorem_applicable == (
        cs.n_gt_q and (cs.A or cs.B or cs.C)
    )
    # B and C are mutually exclusive by the parity of p.
    assert not (cs.B and cs.C)


@settings(max_examples=200)
@given(valid_params())
def test_classify_pure(params):
    assert classify(params) == classify(params)


@settings(max_examples=200)
@given(valid_params())
def test_theorem_implies_some_witness_route(params):
    """Each condition is a witness route, in both directions: A is the
    odd-prime route's case i, B the prime-power route at odd p, C at p = 2."""
    cs = classify(params)
    if cs.theorem_applicable:
        assert cs.witness_prime_applicable or cs.witness_q_applicable
    assert cs.A == (cs.witness_prime_case == "i")
    assert cs.B == (params.p % 2 == 1 and cs.witness_q_applicable)
    assert cs.C == (params.p == 2 and cs.witness_q_applicable)
    assert cs.theorem_applicable == (
        cs.n_gt_q and (cs.witness_prime_applicable or cs.witness_q_applicable)
    )


@settings(max_examples=200)
@given(valid_params())
def test_phi_matches_unit_count(params):
    if params.q <= 4096:
        count = sum(1 for i in range(1, params.q) if math.gcd(i, params.q) == 1)
        assert params.phi == count
