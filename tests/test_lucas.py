"""Lucas sequence evaluation, exact and modular."""

import pytest
from hypothesis import example, given, strategies as st

from congrkit.errors import IndexTooLargeError, OutOfRangeError
from congrkit.lucas import lucas_uv_exact, uv_mod
from congrkit.modarith import frac_mod, jacobi, sieve_primes

FIB = [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610]
LUC = [2, 1, 3, 4, 7, 11, 18, 29, 47, 76, 123, 199, 322, 521, 843, 1364]


def test_exact_fibonacci_prefix():
    for n in range(16):
        u, v = lucas_uv_exact(1, -1, n)
        assert (u, v) == (FIB[n], LUC[n])


def test_exact_index_guard():
    with pytest.raises(IndexTooLargeError):
        lucas_uv_exact(1, -1, 501)


@given(st.integers(-30, 30), st.integers(-30, 30), st.integers(0, 200),
       st.sampled_from(sieve_primes(200)[1:]))
# the ladder starts at index 1, so its first indices at p = 3 are pinned, as
# are P = 0, Q = 0, both 0 mod p, and P^2 = 4Q (a zero discriminant)
@example(1, -1, 0, 3)
@example(1, -1, 1, 3)
@example(2, 5, 2, 3)
@example(4, 1, 3, 3)
@example(0, 1, 7, 5)
@example(3, 0, 9, 7)
@example(0, 0, 4, 3)
@example(3, 6, 5, 3)
@example(2, 1, 10, 3)
@example(-4, 4, 11, 7)
@example(6, 9, 60, 101)
def test_uv_mod_matches_exact(P, Q, n, p):
    u, v = uv_mod(P, Q, n, p)
    ue, ve = lucas_uv_exact(P, Q, n)
    assert (u, v) == (ue % p, ve % p)


@given(st.integers(0, 10 ** 6), st.sampled_from(sieve_primes(100)[1:]))
def test_un_of_2_1_is_n(n, p):
    # U_n(2, 1) = n, V_n(2, 1) = 2
    assert uv_mod(2, 1, n, p) == (n % p, 2 % p)


@given(st.integers(0, 400), st.sampled_from([101, 103, 107]))
def test_un_of_1_1_six_periodic(n, p):
    # U_n(1, 1) = (-1)^(n-1) * (n|3)
    u, _ = uv_mod(1, 1, n, p)
    want = (-1) ** ((n - 1) % 2) * jacobi(n, 3)
    assert u == want % p


def test_uv_mod_rejects_negative_index():
    with pytest.raises(OutOfRangeError):
        uv_mod(1, -1, -5, 101)


@pytest.mark.parametrize("m", [4, 2, 0, 1, -7])
def test_uv_mod_rejects_even_or_small_modulus(m):
    # the index doubling halves mod m, so m must be odd: (U_7, V_7) = (13, 29) is (1, 1) mod 4
    with pytest.raises(OutOfRangeError, match="modulus"):
        uv_mod(1, -1, 7, m)


def test_uv_mod_odd_composite_modulus():
    u, v = lucas_uv_exact(3, 1, 20)
    for m in (9, 15, 21):
        assert uv_mod(3, 1, 20, m) == (u % m, v % m)


def test_exact_rejects_negative_index():
    with pytest.raises(OutOfRangeError):
        lucas_uv_exact(1, -1, -1)


@given(st.fractions(-30, 30, max_denominator=50), st.integers(-30, 30), st.integers(0, 60),
       st.sampled_from(sieve_primes(150)[1:]))
def test_rational_parameters_reduce(P, Q, n, p):
    # reducing a rational P mod p commutes with the recurrence
    if P.denominator % p == 0:
        return
    ue, ve = lucas_uv_exact(P, Q, n)
    assert uv_mod(frac_mod(P, p), Q, n, p) == (frac_mod(ue, p), frac_mod(ve, p))
