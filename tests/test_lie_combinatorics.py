"""Combinatorial checks on eigen-multiplicity systems.

The exhaustive searcher in support.py is an independent oracle for the
greedy subset selector: it tries every subset, so on small systems it
certifies that a valid subset of at least half the labels really exists.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from hodgecert import ParameterError, multiplicities, semisimplicity_criterion, validate
from lie_combinatorics import (
    DuplicateMultiplicityError,
    EigenPair,
    EigenSystem,
    SelfConflictError,
    as_eigen_system,
    complement_free_check,
    coprime_pair_check,
    eigen_system,
    greedy_compatible_subset,
    multiplicity_hypotheses,
)
from support import exhaustive_best_subset, pairs_valid


class TestCoprimePair:
    def test_accepts(self):
        assert coprime_pair_check([2, 3])

    def test_rejects_common_factor(self):
        assert not coprime_pair_check([2, 4])

    def test_rejects_wrong_count(self):
        assert not coprime_pair_check([5])
        assert not coprime_pair_check([2, 3, 5])


class TestComplementFree:
    def test_accepts(self):
        assert complement_free_check([1, 2], 5)

    def test_rejects_pairing(self):
        assert not complement_free_check([1, 3], 4)

    def test_rejects_self_pairing(self):
        # 2 = 4 - 2 pairs with itself
        assert not complement_free_check([1, 2], 4)

    def test_rejects_out_of_range(self):
        assert not complement_free_check([0, 2], 5)
        assert not complement_free_check([1, 5], 5)

    def test_rejects_duplicates(self):
        assert not complement_free_check([2, 2], 7)


class TestGreedySubset:
    def test_single(self):
        assert greedy_compatible_subset(eigen_system(5, [("A", 2, 3)])) == ("A",)

    def test_pair_kept(self):
        sys2 = eigen_system(7, [("A", 2, 5), ("B", 3, 4)])
        assert greedy_compatible_subset(sys2) == ("A", "B")

    def test_conflict_dropped(self):
        # B's multiplicity collides with A's complement
        sys2 = eigen_system(7, [("A", 2, 5), ("B", 5, 2)])
        chosen = greedy_compatible_subset(sys2)
        assert chosen == ("A",)

    def test_self_conflict_rejected(self):
        with pytest.raises(SelfConflictError):
            greedy_compatible_subset(eigen_system(4, [("A", 2, 2)]))

    def test_duplicate_rejected(self):
        with pytest.raises(DuplicateMultiplicityError):
            greedy_compatible_subset(
                eigen_system(6, [("A", 1, 5), ("B", 1, 5), ("C", 5, 1)])
            )


class TestSystemValidation:
    def test_bad_sum(self):
        with pytest.raises(ParameterError):
            eigen_system(6, [("A", 2, 3)])

    def test_bad_label(self):
        with pytest.raises(ParameterError):
            eigen_system(6, [("A", 2, 4), ("A", 4, 2)])

    def test_nonpositive(self):
        with pytest.raises(ParameterError):
            eigen_system(6, [("A", 0, 6)])


class TestHypotheses:
    def test_all_shared_factor(self):
        sys2 = eigen_system(6, [("A", 2, 4), ("B", 4, 2)])
        assert not multiplicity_hypotheses(sys2)

    def test_one_coprime_enough(self):
        sys2 = eigen_system(6, [("A", 2, 4), ("B", 1, 5)])
        assert multiplicity_hypotheses(sys2)

    def test_duplicate_is_false(self):
        # a predicate, not a precondition: repeats just mean the hypotheses fail
        assert not multiplicity_hypotheses(eigen_system(6, [("A", 1, 5), ("B", 1, 5)]))


@st.composite
def random_system(draw, max_size: int = 40, max_d: int = 100):
    d = draw(st.integers(min_value=3, max_value=max_d))
    pool = [v for v in range(1, d) if 2 * v != d]
    draw_size = min(len(pool), draw(st.integers(min_value=1, max_value=max_size)))
    n_vals = draw(
        st.lists(
            st.sampled_from(pool),
            min_size=draw_size,
            max_size=draw_size,
            unique=True,
        )
    )
    pairs = [EigenPair(f"L{k}", v, d - v) for k, v in enumerate(n_vals)]
    return EigenSystem(d, tuple(pairs))


@settings(max_examples=300)
@given(random_system())
def test_greedy_output_valid_and_large(system):
    chosen = greedy_compatible_subset(system)
    by_label = {p.label: p for p in system.pairs}
    kept = [by_label[x] for x in chosen]
    for a in kept:
        for b in kept:
            if a.label != b.label:
                assert pairs_valid(a, b) and pairs_valid(b, a)
    assert 2 * len(chosen) >= len(system.pairs)


@settings(max_examples=300)
@given(random_system())
def test_greedy_output_is_maximal(system):
    # every pair left out conflicts with a chosen one, so no pair can be added
    chosen = set(greedy_compatible_subset(system))
    kept = [p for p in system.pairs if p.label in chosen]
    for left_out in (p for p in system.pairs if p.label not in chosen):
        assert any(not (pairs_valid(left_out, k) and pairs_valid(k, left_out)) for k in kept)


@settings(max_examples=150, deadline=None)
@given(random_system(max_size=12, max_d=30))
def test_exhaustive_confirms_bound(system):
    chosen = greedy_compatible_subset(system)
    best = exhaustive_best_subset(system)
    assert len(best) >= len(chosen)
    assert 2 * len(best) >= len(system.pairs)


def test_matches_cm_criterion_on_curve_systems():
    rng = random.Random(11)
    checked = 0
    for _ in range(200):
        p = rng.choice([3, 5, 7])
        r = rng.randint(1, 3)
        q = p**r
        n = rng.randint(q + 1, q + 60)
        if n % p == 0:
            continue
        cm = multiplicities(validate(n, p, r))
        flag, _tau = semisimplicity_criterion(cm)
        assert multiplicity_hypotheses(as_eigen_system(cm)) == flag
        checked += 1
    assert checked > 100
