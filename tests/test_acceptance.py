"""Acceptance gate: every criterion below runs end to end within its stated
time budget and prints one summary line on success.

The independent oracles live outside the package: an exhaustive witness
scan cross-checked branch by branch, an all-subsets searcher for the
greedy selector, and exact cyclotomic linear algebra for the center
dimension.
"""

import json
import math
import random
import time
from pathlib import Path

from hodgecert import (
    BezoutData,
    Branch,
    CurveParams,
    ScanSpec,
    brute_force_witness,
    certify_product,
    certify_single,
    classify,
    is_prime,
    ledger,
    multiplicities,
    run_cross_validate,
    run_scan,
    validate,
    verify_witness,
)
from hodgecert.cli import main
from hodgecert.witness import constructive_witness_prime, constructive_witness_q
from cyclo_oracle import center_dimension_oracle, phi_count
from lie_combinatorics import EigenPair, EigenSystem, greedy_compatible_subset
from support import exhaustive_best_subset, pairs_valid

GOLDEN = Path(__file__).parent / "golden"

# Largest r with p^r below the per-criterion prime-power cap.
R_MAX_729 = {2: 9, 3: 6, 5: 4, 7: 3, 11: 2, 13: 2}
R_MAX_243 = {2: 7, 3: 5, 5: 3, 7: 2, 11: 2, 13: 2}


def seeded_sample(count: int = 1000) -> list[CurveParams]:
    """Deterministic random parameter points with q > 2 and n > q."""
    rng = random.Random(20260823)
    sample: list[CurveParams] = []
    while len(sample) < count:
        p = rng.choice([2, 3, 5, 7, 11, 13])
        r = rng.randint(1, R_MAX_729[p])
        q = p**r
        if q == 2:
            continue
        n = rng.randint(q + 1, min(q + 1500, 3000))
        if n % p == 0 or n < 4:
            continue
        sample.append(validate(n, p, r))
    return sample


def test_criterion_1_constructive_routes_agree_with_oracle_on_full_grid():
    start = time.monotonic()
    points = prime_checked = general_checked = agreements = 0
    for p, r_max in R_MAX_729.items():
        report = run_cross_validate(ScanSpec(4, 3000, (p,), r_max))
        points += report["points"]
        prime_checked += report["prime_construction_checked"]
        general_checked += report["general_construction_checked"]
        agreements += report["oracle_agreements"]
    elapsed = time.monotonic() - start
    assert points > 50000
    assert prime_checked > 10000
    assert general_checked > 10000
    assert agreements > 10000
    assert elapsed < 60.0
    print(
        f"PASS criterion 1: {points} grid points, {prime_checked} odd-prime and "
        f"{general_checked} general constructions verified against the oracle "
        f"({agreements} agreements) in {elapsed:.1f}s"
    )


def test_criterion_2_congruence_equivalence_to_100000_within_one_second(tmp_path):
    out = tmp_path / "remark.json"
    start = time.monotonic()
    code = main(["remark-check", "--n-max", "100000", "--out", str(out)])
    elapsed = time.monotonic() - start
    assert code == 0
    body = json.loads(out.read_text())["remark_check"]
    assert body["passed"] is True
    assert body["matching_count"] == 12500
    assert body["counterexample"] is None
    assert elapsed < 1.0
    print(
        f"PASS criterion 2: q = 4 route applicability matches n = 7 mod 8 up to "
        f"100000 ({body['matching_count']} matches) in {elapsed:.2f}s"
    )


def test_criterion_3_degree_one_mod_q_family_has_no_witness():
    checked = 0
    for p in range(2, 244):
        if not is_prime(p):
            continue
        r = 1
        while p**r <= 243:
            q = p**r
            k = 2
            while k * q + 1 <= 2000:
                params = validate(k * q + 1, p, r)
                assert brute_force_witness(params) is None
                checked += 1
                k += 1
            r += 1
    assert checked > 400
    print(f"PASS criterion 3: no witness exists at any of {checked} points n = kq + 1, k >= 2")


def test_criterion_4_cm_multiplicity_invariants_on_seeded_sample():
    sample = seeded_sample(1000)
    for params in sample:
        cm = multiplicities(params)
        n, q = params.n, params.q
        phi = phi_count(q)  # independent of the package's closed form
        assert len(cm.entries) == phi
        assert set(cm.entries) == {i for i in range(1, q) if math.gcd(i, params.p) == 1}
        for i, value in cm.entries.items():
            assert value > 0
            assert value == n * i // q
            assert cm.entries[q - i] == (n - 1) - value
        assert len(set(cm.entries.values())) == phi
        assert sum(cm.entries.values()) == (n - 1) * phi // 2 == ledger(params)[0]
    print(f"PASS criterion 4: multiplicity invariants hold at all {len(sample)} sampled points")


def test_criterion_5_dimension_ledger_exact_and_golden_bytes_stable(tmp_path):
    sample = seeded_sample(1000)
    for params in sample:
        phi = phi_count(params.q)
        a, u, c, s = ledger(params)
        assert 2 * a == phi * (params.n - 1)
        assert 2 * u == phi * (params.n - 1) ** 2
        assert 2 * c == phi
        assert c + s == u
        cert = certify_single(params)
        assert (
            cert.dim_abelian_variety,
            cert.dim_unitary,
            cert.dim_center,
            cert.dim_semisimple,
        ) == (a, u, c, s)

    single = tmp_path / "single.json"
    product = tmp_path / "product.json"
    assert main(["certify", "--n", "5", "--p", "3", "--r", "1", "--out", str(single)]) == 0
    assert main(
        ["certify", "--n", "11", "--p", "3", "--r", "2", "--product", "--out", str(product)]
    ) == 0
    assert single.read_bytes() == (GOLDEN / "certificate_5_3_1.json").read_bytes()
    assert product.read_bytes() == (GOLDEN / "product_11_3_2.json").read_bytes()
    print(
        f"PASS criterion 5: ledger exact at {len(sample)} points; "
        f"golden certificates byte-identical"
    )


def test_criterion_6_determinant_identities_recomputed_across_grid():
    inverse_seen = bezout0_seen = bezout1_seen = power2_seen = 0
    for p, r_max in R_MAX_243.items():
        for r in range(1, r_max + 1):
            q = p**r
            for n in range(4, 601):
                if n % p == 0:
                    continue
                params = validate(n, p, r)
                conds = classify(params)

                witnesses = []
                if conds.witness_q_applicable:
                    witnesses.append(constructive_witness_q(params))
                if conds.witness_prime_applicable and n < 2 * q:
                    witnesses.append(constructive_witness_prime(params))

                for w in witnesses:
                    assert verify_witness(params, w)
                    k, c = divmod(n, q)
                    d = c - 1
                    if w.branch is Branch.MODULAR_INVERSE:
                        j = c * w.i // q
                        assert (w.i * d) % q == 1
                        assert w.i * d - q * j == 1
                        assert w.floor_value == k * w.i + j
                        assert w.bezout is None and w.determinant_check == 1
                        inverse_seen += 1
                    elif w.branch in (Branch.BEZOUT_CANDIDATE_0, Branch.BEZOUT_CANDIDATE_1):
                        t = math.gcd(d, q)
                        dp, qp = d // t, q // t
                        i0 = pow(dp, -1, qp)
                        j0 = (dp * i0 - 1) // qp
                        assert dp * i0 - qp * j0 == 1
                        assert (t + i0 + qp) // q == 0  # floor-correction guard
                        eps = 0 if w.branch is Branch.BEZOUT_CANDIDATE_0 else 1
                        i, j = i0 + eps * qp, j0 + eps * dp
                        assert w.i == i
                        assert d * i - q * j == t
                        assert w.floor_value == k * i + j
                        assert w.bezout == BezoutData(dp, qp, j0)
                        assert w.determinant_check == t
                        if eps == 0:
                            bezout0_seen += 1
                        else:
                            bezout1_seen += 1
                    elif w.branch is Branch.POWER2_SPECIAL:
                        ratio = (n + 1) // q
                        assert (n + 1) % q == 0 and ratio % 2 == 0
                        assert w.i == q // 2 - 1
                        assert w.floor_value == (q // 2 - 1) * ratio - 1
                        power2_seen += 1

    assert inverse_seen > 1000
    assert bezout0_seen > 100
    assert bezout1_seen > 0
    assert power2_seen > 0
    print(
        f"PASS criterion 6: determinant identities re-derived for {inverse_seen} inverse, "
        f"{bezout0_seen}+{bezout1_seen} Bezout, and {power2_seen} power-of-two witnesses"
    )


def test_criterion_7_greedy_subset_bound_on_ten_thousand_random_systems():
    rng = random.Random(97)
    start = time.monotonic()
    exhaustive_runs = 0
    for _ in range(10000):
        d = rng.randint(3, 100)
        pool = [v for v in range(1, d) if 2 * v != d]
        size = rng.randint(1, min(40, len(pool)))
        n_vals = rng.sample(pool, size)
        system = EigenSystem(
            d, tuple(EigenPair(f"L{k}", v, d - v) for k, v in enumerate(n_vals))
        )

        chosen = greedy_compatible_subset(system)
        by_label = {pr.label: pr for pr in system.pairs}
        kept = [by_label[x] for x in chosen]
        for a in kept:
            for b in kept:
                assert a.n_val != b.m_val
        assert 2 * len(chosen) >= len(system.pairs)

        if size <= 12 and exhaustive_runs < 1000:
            best = exhaustive_best_subset(system)
            assert len(best) >= len(chosen)
            assert 2 * len(best) >= size
            exhaustive_runs += 1
    elapsed = time.monotonic() - start
    assert exhaustive_runs >= 500
    assert elapsed < 30.0
    print(
        f"PASS criterion 7: half-coverage bound held on 10000 systems "
        f"({exhaustive_runs} confirmed exhaustively) in {elapsed:.1f}s"
    )


def test_criterion_8_cyclotomic_oracle_confirms_center_dimension():
    pairs = [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 1)]
    for p, r in pairs:
        from_oracle = center_dimension_oracle(p, r)
        # n = p^r + 2 meets the product hypotheses: p odd, p prime to n(n-1), n > q
        from_package = certify_product(validate(p**r + 2, p, r)).dim_center_product
        assert from_oracle == from_package == phi_count(p**r) // 2
    print(
        f"PASS criterion 8: exact cyclotomic linear algebra confirms the center "
        f"dimension at {len(pairs)} prime-power levels"
    )


def test_criterion_9_scan_reports_are_byte_reproducible(tmp_path):
    for fmt in ("json", "csv"):
        spec = ScanSpec(5, 60, (2, 3, 5), 3, format=fmt)
        _rows, first = run_scan(spec)
        _rows, second = run_scan(spec)
        assert first == second

        out_a = tmp_path / f"a.{fmt}"
        out_b = tmp_path / f"b.{fmt}"
        argv = [
            "scan",
            "--n-min", "5",
            "--n-max", "60",
            "--primes", "2,3,5",
            "--r-max", "3",
            "--format", fmt,
        ]
        assert main(argv + ["--out", str(out_a)]) == 0
        assert main(argv + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes() == first
    print("PASS criterion 9: repeated scans produce byte-identical JSON and CSV reports")
