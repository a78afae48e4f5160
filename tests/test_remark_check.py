"""run_remark_check proves the q = 4 claim over one period of classify.

The exhaustive sweep it replaced is kept here as the reference: for every
odd n in [5, n_max] it asks classify whether the general witness route
applies at (n, 2, 2) and lists the n where it does.
"""

import dataclasses
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hodgecert.scanner
from hodgecert import InternalInvariantError, ParameterError, classify, run_remark_check, validate
from hodgecert.cli import main


def sweep_remark_check(n_max: int) -> dict:
    """The reference: classify every odd n in [5, n_max] at (p, q) = (2, 4)."""
    if n_max < 9:
        raise ParameterError(f"n_max = {n_max}; need at least 9")
    matching: list[int] = []
    for n in range(5, n_max + 1, 2):
        applicable = classify(validate(n, 2, 2)).witness_q_applicable
        if applicable != (n % 8 == 7):
            raise InternalInvariantError(f"counterexample n = {n}")
        if applicable:
            matching.append(n)
    return {
        "n_max": n_max,
        "passed": True,
        "matching_count": len(matching),
        "matching": matching,
        "counterexample": None,
    }


def test_equals_the_sweep():
    for n_max in [*range(9, 401), 100000, 100007]:
        report, expected = run_remark_check(n_max), sweep_remark_check(n_max)
        assert report == expected and list(report) == list(expected), n_max


@settings(max_examples=500)
@given(st.integers(min_value=2, max_value=2**39 - 1).map(lambda k: 2 * k + 1))
def test_route_reads_n_only_modulo_8(n):
    # the reason one period decides every odd n
    def applicable(m: int) -> bool:
        return classify(validate(m, 2, 2)).witness_q_applicable

    assert applicable(n) == applicable(n % 8 + 8)


def test_cost_does_not_grow_with_a_sweep():
    # the sweep over 500,000 odd n took seconds of CPU; listing the answer takes milliseconds
    start = time.process_time()
    report = run_remark_check(1000001)
    assert time.process_time() - start < 0.5
    assert report["matching_count"] == 125000


@pytest.fixture
def flipped_at_3_mod_8(monkeypatch):
    """classify, as scanner calls it, with the route flipped for n = 3 mod 8."""

    def classify_flipped(params):
        conds = classify(params)
        if params.n % 8 == 3:
            conds = dataclasses.replace(conds, witness_q_applicable=not conds.witness_q_applicable)
        return conds

    monkeypatch.setattr(hodgecert.scanner, "classify", classify_flipped)


def test_counterexample_raises(flipped_at_3_mod_8):
    with pytest.raises(InternalInvariantError, match="^counterexample n = 11$"):
        run_remark_check(100)


def test_counterexample_exits_2(flipped_at_3_mod_8, capsys):
    assert main(["remark-check", "--n-max", "100"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal invariant violation: counterexample n = 11\n"
