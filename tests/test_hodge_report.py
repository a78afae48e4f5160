import dataclasses

import pytest
from hypothesis import given, settings

from hodgecert import (
    InternalInvariantError,
    ParameterError,
    Verdict,
    brute_force_witness,
    certify_product,
    certify_single,
    classify,
    constructive_witness,
    ledger,
    multiplicities,
    semisimplicity_criterion,
    validate,
    verify_witness,
)
from hodgecert.hodge_report import certificate_from_witness
from support import small_grid, valid_params


class TestLedger:
    def test_example(self):
        assert ledger(validate(5, 3, 1)) == (4, 16, 1, 15)

    def test_larger(self):
        assert ledger(validate(19, 3, 2)) == (54, 972, 3, 969)

    @settings(max_examples=200)
    @given(valid_params())
    def test_ledger(self, params):
        if params.q == 2:
            return
        a, u, c, s = ledger(params)
        assert c + s == u
        assert a == (params.n - 1) * c

    @pytest.mark.parametrize("n", [5, 7, 9, 101])
    def test_refuses_q_2(self, n):
        # phi(2) = 1 is odd, so no ledger at q = 2 adds up
        message = "^q = 2 has no new part distinct from the jacobian$"
        with pytest.raises(ParameterError, match=message):
            ledger(validate(n, 2, 1))


class TestDims:
    def test_new_part(self):
        assert ledger(validate(5, 3, 1))[0] == 4
        assert ledger(validate(7, 2, 2))[0] == 6
        assert ledger(validate(11, 3, 2))[0] == 30

    def test_new_part_rejects_q2(self):
        with pytest.raises(ParameterError, match="q = 2 has no new part"):
            ledger(validate(5, 2, 1))


def test_level_sum_telescopes():
    # summing new-part dims over q = p, ..., p^r recovers the full genus
    for n, p, r in ((11, 3, 2), (13, 3, 2), (31, 5, 2), (29, 3, 3)):
        total = sum(ledger(validate(n, p, i))[0] for i in range(1, r + 1))
        assert total == (n - 1) * (p**r - 1) // 2


class TestCertifySingle:
    def test_determined_example(self):
        cert = certify_single(validate(5, 3, 1))
        assert cert.verdict is Verdict.DETERMINED
        assert cert.dim_abelian_variety == 4
        assert (cert.dim_unitary, cert.dim_center, cert.dim_semisimple) == (16, 1, 15)
        assert cert.witness is not None and cert.witness.i == 1
        assert "S_n" in cert.assumption

    def test_determined_even_p(self):
        cert = certify_single(validate(7, 2, 2))
        assert cert.verdict is Verdict.DETERMINED
        assert cert.dim_abelian_variety == 6
        assert (cert.dim_unitary, cert.dim_center, cert.dim_semisimple) == (36, 1, 35)

    def test_inconclusive_example(self):
        # n = 19 = 2*9 + 1 sits in the witness-free family
        cert = certify_single(validate(19, 3, 2))
        assert cert.verdict is Verdict.INCONCLUSIVE
        assert cert.witness is None
        assert (cert.dim_unitary, cert.dim_center, cert.dim_semisimple) == (972, 3, 969)

    def test_rejects_q2(self):
        with pytest.raises(ParameterError, match="q = 2 certificates are out of scope"):
            certify_single(validate(9, 2, 1))

    @settings(max_examples=200)
    @given(valid_params())
    def test_determined_is_sound(self, params):
        if params.q == 2:
            return
        cert = certify_single(params)
        conds = classify(params)
        assert cert.conditions == conds
        assert cert.dim_abelian_variety == ledger(params)[0]
        if cert.verdict is Verdict.DETERMINED:
            assert conds.theorem_applicable
            assert cert.witness is not None
            assert verify_witness(params, cert.witness)
            flag, _tau = semisimplicity_criterion(multiplicities(params))
            assert flag
        else:
            assert cert.witness is None

    def test_verdict_matches_full_system_on_grid(self):
        # the full multiplicity system is the oracle for the O(log q) verdict
        checked = 0
        for params in small_grid():
            if params.q == 2 or params.n <= params.q:
                continue
            cert = certify_single(params)
            cm = multiplicities(params)
            flag, _tau = semisimplicity_criterion(cm)
            assert (cert.verdict is Verdict.DETERMINED) == flag, params
            if cert.verdict is Verdict.DETERMINED:
                assert cm.entries[cert.witness.i] == cert.witness.floor_value
            checked += 1
        assert checked > 1000

    @settings(max_examples=500)
    @given(valid_params(max_q=1 << 40, max_n=1 << 40))
    def test_verdict_up_to_the_parameter_bound(self, params):
        if params.q == 2:
            return
        conds = classify(params)
        cert = certify_single(params)
        determined = cert.verdict is Verdict.DETERMINED
        has_route = params.n > params.q and constructive_witness(params) is not None
        assert determined == conds.theorem_applicable == has_route
        if determined:
            assert verify_witness(params, cert.witness)

    @settings(max_examples=200)
    @given(valid_params())
    def test_inconclusive_has_no_constructive_route(self, params):
        # when the verdict is Inconclusive despite the theorem applying,
        # the brute-force oracle must come up empty as well
        if params.q == 2 or params.n <= params.q:
            return
        cert = certify_single(params)
        if cert.verdict is Verdict.INCONCLUSIVE and cert.conditions.theorem_applicable:
            assert brute_force_witness(params) is None


class TestCertifyInvariants:
    def test_unverified_witness_raises(self, monkeypatch):
        import hodgecert.witness

        monkeypatch.setattr(hodgecert.witness, "verify_witness", lambda params, w: False)
        with pytest.raises(InternalInvariantError):
            certify_single(validate(5, 3, 1))

    @pytest.mark.parametrize(
        "point, applicable, with_witness",
        [((19, 3, 2), True, False), ((5, 3, 1), False, True)],
        ids=["applicable_without_witness", "witness_where_not_applicable"],
    )
    def test_conditions_disagreeing_with_witness_raise(self, point, applicable, with_witness):
        params = validate(*point)
        conds = classify(params)
        witness = constructive_witness(params) if with_witness else None
        forged = dataclasses.replace(conds, theorem_applicable=applicable)
        with pytest.raises(InternalInvariantError, match="conditions and witness disagree at n = "):
            certificate_from_witness(params, forged, witness)


class TestCertifyProduct:
    def test_example_11_3_2(self):
        cert = certify_product(validate(11, 3, 2))
        assert cert.dim_center_product == 3
        assert [lv.dim_semisimple for lv in cert.levels] == [99, 297]
        assert cert.dim_total == 399
        assert all(lv.verdict is Verdict.DETERMINED for lv in cert.levels)
        assert "isogeny" in cert.isogeny_note

    def test_rejects_p_dividing_n_minus_1(self):
        with pytest.raises(ParameterError, match="product certification needs p odd"):
            certify_product(validate(10, 3, 2))

    def test_rejects_p_dividing_n_times_n_minus_1(self):
        with pytest.raises(ParameterError, match="product certification needs p odd"):
            certify_product(validate(4, 3, 1))

    def test_rejects_even_p(self):
        with pytest.raises(ParameterError, match="product certification needs p odd"):
            certify_product(validate(7, 2, 2))

    def test_rejects_n_below_q(self):
        with pytest.raises(ParameterError, match="product certification needs p odd"):
            certify_product(validate(5, 3, 2))

    @pytest.mark.parametrize("point", [(7, 2, 2), (10, 3, 2), (4, 3, 1), (5, 3, 2)])
    def test_refuses_before_certifying_any_level(self, point, monkeypatch):
        import hodgecert.hodge_report

        calls = []
        monkeypatch.setattr(hodgecert.hodge_report, "certify_single", calls.append)
        with pytest.raises(ParameterError, match="product certification needs p odd"):
            certify_product(validate(*point))
        assert calls == []

    @settings(max_examples=100)
    @given(valid_params(max_q=243, max_n=1000, min_n=5))
    def test_total_is_center_plus_levels(self, params):
        conds = classify(params)
        if not conds.product_applicable or params.n <= params.q:
            return
        cert = certify_product(params)
        assert len(cert.levels) == params.r
        assert cert.dim_center_product == params.phi // 2
        assert cert.dim_total == cert.dim_center_product + sum(
            lv.dim_semisimple for lv in cert.levels
        )
