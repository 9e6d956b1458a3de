"""Exact class sums of binomial coefficients and their closed forms."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from congrkit.combsum import (
    TSumKey,
    delta5,
    delta5_claimed,
    delta5_findings,
    t0_closed,
    t10_lucas_identity,
    t5_row_claim,
    t_recurrences_check,
    t_sum_exact,
)
from congrkit.errors import (
    IndexTooLargeError,
    OutOfRangeError,
    UnsupportedModulusError,
)
from congrkit.modarith import sieve_primes


def test_key_validation():
    with pytest.raises(OutOfRangeError):
        TSumKey(5, 3, 3)
    with pytest.raises(OutOfRangeError):
        TSumKey(-1, 3, 0)
    with pytest.raises(OutOfRangeError):
        TSumKey(5, 0, 0)


def test_t_sum_small_values():
    # n=4, m=3, r=0: C(4,0) + C(4,3) = 5
    assert t_sum_exact(TSumKey(4, 3, 0)) == 5
    assert t_sum_exact(TSumKey(4, 3, 1)) == 1 + 4
    assert t_sum_exact(TSumKey(4, 3, 2)) == 6
    assert t_sum_exact(TSumKey(0, 7, 0)) == 1


@given(st.integers(0, 60), st.integers(1, 12))
def test_t_sums_partition_two_power(n, m):
    assert sum(t_sum_exact(TSumKey(n, m, r)) for r in range(m)) == 2 ** n


def test_t_sum_guard():
    with pytest.raises(IndexTooLargeError):
        t_sum_exact(TSumKey(2001, 3, 0))


@given(st.integers(0, 400), st.sampled_from([3, 4, 6]))
def test_t0_closed_matches_exact(n, m):
    assert t0_closed(m, n) == t_sum_exact(TSumKey(n, m, 0))


def test_t0_closed_frozen_values():
    assert t0_closed(3, 4) == 5
    assert t0_closed(4, 6) == 16
    assert t0_closed(6, 6) == 2


def test_t0_closed_guards():
    with pytest.raises(UnsupportedModulusError):
        t0_closed(5, 10)
    with pytest.raises(OutOfRangeError):
        t0_closed(3, -1)


@given(st.integers(0, 200), st.sampled_from([3, 4, 5, 6, 10, 12]))
def test_recurrences(n, m):
    assert t_recurrences_check(n, m)


def test_recurrence_guard():
    with pytest.raises(IndexTooLargeError):
        t_recurrences_check(501, 3)


def test_delta5_exact_values():
    assert delta5(0, 2) == 6
    assert delta5(0, 4) == 14
    assert delta5(0, 1) == 3
    # shifting r by 5 wraps around
    assert delta5(0, 6) == delta5(5, 6)


def test_delta5_claimed_values():
    assert delta5_claimed(0, 1) == -2
    assert delta5_claimed(0, 2) == 6
    assert delta5_claimed(1, 3) == -3
    assert delta5_claimed(-2, 3) == 7
    with pytest.raises(OutOfRangeError):
        delta5_claimed(3, 4)


def test_delta5_findings_split_by_parity():
    # the quoted closed forms hold at even n and break at every odd n tried
    for n in (2, 4, 6, 8, 10, 20):
        assert delta5_findings(n) == []
    for n in (1, 3, 5, 7, 9, 11):
        bad = delta5_findings(n)
        assert bad
        for rec in bad:
            assert rec["exact"] != rec["claimed"]
            assert rec["n"] == n
    # first odd case, spelled out
    assert delta5(0, 1) == 3 and delta5_claimed(0, 1) == -2


def test_t5_row_claim_examples():
    exact, label, claimed = t5_row_claim(11)
    assert label == "L[(p+1)/2]"
    assert exact != claimed
    exact, label, claimed = t5_row_claim(13)
    assert label == "-L[(p+1)/2]"
    with pytest.raises(OutOfRangeError):
        t5_row_claim(5)


def test_t10_identity_frozen_and_range():
    assert t10_lucas_identity(11) == (-22, -22)
    assert t10_lucas_identity(31) == (-2728, -2728)
    for p in sieve_primes(600):
        if p % 20 == 11:
            lhs, rhs = t10_lucas_identity(p)
            assert lhs == rhs
    with pytest.raises(OutOfRangeError):
        t10_lucas_identity(13)
