"""Binomial coefficients mod p and truncated diagonal sums."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from congrkit.binomsum import (
    TABLE_PRIME_LIMIT,
    ModTables,
    binom_shift_lemma_check,
    mod_tables,
)
from congrkit.errors import OutOfRangeError, ZeroInverseError
from congrkit.modarith import inv_mod, is_prime, sieve_primes
from congrkit.registry import Ctx

ODD_PRIMES = sieve_primes(200)[1:]


@given(st.sampled_from(ODD_PRIMES), st.integers(0, 199), st.integers(0, 199))
def test_binom_mod_matches_comb(p, n, k):
    if n >= p:
        return
    assert mod_tables(p).binom(n, k) == math.comb(n, k) % p


@given(st.sampled_from(ODD_PRIMES), st.integers(0, 3000), st.integers(0, 3000))
def test_binom_general_matches_comb(p, n, k):
    assert mod_tables(p).binom_general(n, k) == math.comb(n, k) % p


def test_tables_binom_agrees():
    t = mod_tables(101)
    for n in range(101):
        for k in range(n + 1):
            assert t.binom(n, k) == math.comb(n, k) % 101


def test_tables_diag_and_guard():
    t = ModTables(103)
    assert t.diag(4, 2, 25) == [math.comb(4 * k, 2 * k) % 103 for k in range(26)]
    with pytest.raises(OutOfRangeError):
        t.diag(4, 2, 26)
    t7 = mod_tables(7)
    with pytest.raises(OutOfRangeError):
        t7.binom(7, 2)
    assert t7.binom(3, 5) == 0
    assert t7.binom_general(7, 2) == 0


def test_diag_and_sum_refuse_b_outside_0_to_a():
    t = ModTables(101)
    for a, b in [(1, 2), (2, -1), (0, 1)]:
        with pytest.raises(OutOfRangeError, match="0 <= b <= a"):
            t.diag(a, b, 5)
        with pytest.raises(OutOfRangeError, match="0 <= b <= a"):
            t.sum_diag_pow(a, b, 1, 5)
    assert t.diag(1, 0, 5) == t.diag(1, 1, 5) == [1] * 6


def test_mod_tables_cached():
    assert mod_tables(101) is mod_tables(101)


def test_sum_spot_values():
    # sum of C(4k,2k)(-1)^k for k <= [7/4] is 1 - 6 + 70 = 65 = 2 mod 7
    assert mod_tables(7).sum_diag_pow(4, 2, -1 % 7, 1) == 2
    # sum of C(4k,2k) for k <= [11/4]
    assert mod_tables(11).sum_diag_pow(4, 2, 1, 2) == 0
    # rational ratio -1/27
    assert mod_tables(19).sum_diag_pow(3, 1, -inv_mod(27, 19) % 19, 6) == 5


@given(st.sampled_from(ODD_PRIMES), st.integers(1, 6), st.integers(-20, 20))
def test_sum_matches_direct_evaluation(p, a, num):
    b = a // 2
    upper = (p - 1) // a
    got = mod_tables(p).sum_diag_pow(a, b, num % p, upper)
    want = sum(math.comb(a * k, b * k) * num ** k for k in range(upper + 1)) % p
    assert got == want


def test_sum_rejects_bad_denominator():
    with pytest.raises(ZeroInverseError):
        Ctx(7).sum_binom(4, 2, 1, 7)


@pytest.mark.parametrize("which", ["L2.2", "L2.3", "L3.1"])
def test_shift_lemmas_hold(which):
    skip3 = which == "L3.1"
    big = [q for q in range(100_000, 100_170) if is_prime(q)]
    for p in sieve_primes(3000)[1:] + big:
        if skip3 and p == 3:
            continue
        assert binom_shift_lemma_check(which, p)


def test_shift_lemma_unknown_name():
    with pytest.raises(OutOfRangeError):
        binom_shift_lemma_check("L9.9", 7)


def test_tables_refuse_primes_above_the_limit():
    # the first prime above the limit; the check runs before any allocation
    p = next(q for q in range(TABLE_PRIME_LIMIT + 1, TABLE_PRIME_LIMIT + 100)
             if is_prime(q))
    with pytest.raises(OutOfRangeError, match=str(TABLE_PRIME_LIMIT)):
        ModTables(p)
    with pytest.raises(OutOfRangeError):
        mod_tables(p)


@pytest.mark.parametrize("n", [0, -3, 1, 2, 4, 9, 15, 561])
def test_tables_refuse_a_modulus_that_is_not_an_odd_prime(n):
    # below 3 by the range check, a composite (561 is a Carmichael number)
    # by Wilson's theorem: (n-1)! = -1 mod n only for a prime n
    with pytest.raises(OutOfRangeError, match=f"p = {n}$"):
        ModTables(n)
    with pytest.raises(OutOfRangeError, match=f"p = {n}$"):
        mod_tables(n)
