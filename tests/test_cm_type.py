import math

import pytest
from hypothesis import given, settings

from hodgecert import (
    ParameterError,
    brute_force_witness,
    multiplicities,
    semisimplicity_criterion,
    validate,
)
from lie_combinatorics import as_eigen_system, multiplicity_hypotheses
from support import valid_params


class TestMultiplicities:
    def test_example_5_3_1(self):
        cm = multiplicities(validate(5, 3, 1))
        assert cm.entries == {1: 1, 2: 3}
        assert cm.d == 4 and cm.phi_q == 2

    def test_example_7_2_2(self):
        cm = multiplicities(validate(7, 2, 2))
        assert cm.entries == {1: 1, 3: 5}
        assert cm.d == 6

    def test_example_11_3_2(self):
        cm = multiplicities(validate(11, 3, 2))
        assert cm.entries == {1: 1, 2: 2, 4: 4, 5: 6, 7: 8, 8: 9}
        assert cm.d == 10 and cm.phi_q == 6

    def test_requires_n_above_q(self):
        with pytest.raises(ParameterError, match="need n > q; got n = 5, q = 9"):
            multiplicities(validate(5, 3, 2))

    def test_rejects_q2(self):
        with pytest.raises(ParameterError, match="q = 2 is outside the certification scope"):
            multiplicities(validate(5, 2, 1))


class TestCriterion:
    def test_example_holds(self):
        assert semisimplicity_criterion(multiplicities(validate(5, 3, 1))) == (True, 1)

    def test_example_fails(self):
        # all multiplicities even while d = 18
        cm = multiplicities(validate(19, 3, 2))
        assert set(cm.entries.values()) == {2, 4, 8, 10, 14, 16}
        assert semisimplicity_criterion(cm) == (False, None)

    def test_example_tau_4(self):
        assert semisimplicity_criterion(multiplicities(validate(31, 3, 2))) == (True, 4)


@settings(max_examples=200)
@given(valid_params(max_q=729, max_n=2000, min_n=5))
def test_system_invariants(params):
    if params.q == 2 or params.n <= params.q:
        return
    cm = multiplicities(params)
    n, q = params.n, params.q
    assert len(cm.entries) == params.phi
    assert all(cm.entries[i] + cm.entries[q - i] == cm.d for i in cm.entries)
    assert sum(cm.entries.values()) == (n - 1) * params.phi // 2
    vals = list(cm.entries.values())
    assert all(v > 0 for v in vals) and len(set(vals)) == len(vals)


@settings(max_examples=200)
@given(valid_params(max_q=729, max_n=2000, min_n=5))
def test_criterion_matches_oracle_residue(params):
    if params.q == 2 or params.n <= params.q:
        return
    cm = multiplicities(params)
    flag, tau = semisimplicity_criterion(cm)
    oracle = brute_force_witness(params)
    if oracle is not None:
        assert flag and tau == oracle.i
        # coprime to d iff coprime to the complementary multiplicity
        assert math.gcd(cm.entries[tau], cm.d - cm.entries[tau]) == 1
    else:
        assert tau is None


@settings(max_examples=100)
@given(valid_params(max_q=729, max_n=2000, min_n=5))
def test_generic_hypotheses_match(params):
    if params.q == 2 or params.n <= params.q:
        return
    cm = multiplicities(params)
    flag, _tau = semisimplicity_criterion(cm)
    assert multiplicity_hypotheses(as_eigen_system(cm)) == flag

