"""Modular arithmetic primitives."""

import math

import pytest
from hypothesis import given, strategies as st

from congrkit.cyclotomic import (
    EisensteinInt,
    GaussianInt,
    _factorize,
    cubic_character,
    quartic_character,
    quartic_symbol,
)
from congrkit.errors import (
    CongruenceError,
    DenominatorDivisibleError,
    EvenModulusError,
    NotCoprimeError,
    OutOfRangeError,
    ZeroInverseError,
)
from congrkit.modarith import (
    TRIAL_DIVISION_LIMIT,
    frac_mod,
    inv_mod,
    is_prime,
    jacobi,
    sieve_primes,
    sqrt_mod,
)
from congrkit.qform import two_squares
from congrkit.registry import Ctx
from fractions import Fraction

SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


def test_sieve_matches_trial_division():
    assert sieve_primes(50) == SMALL_PRIMES
    assert sieve_primes(1) == []
    assert sieve_primes(2) == [2]


def test_sieve_count_to_10000():
    # pi(10^4) = 1229
    assert len(sieve_primes(10000)) == 1229


@given(st.integers(min_value=2, max_value=5000))
def test_is_prime_agrees_with_sieve(n):
    assert is_prime(n) == (n in set(sieve_primes(5000)))


def test_inv_mod_basics():
    assert inv_mod(3, 7) == 5
    assert inv_mod(-1, 7) == 6
    with pytest.raises(ZeroInverseError):
        inv_mod(14, 7)


@given(st.sampled_from(sieve_primes(500)[1:]), st.integers(1, 499))
def test_inv_mod_is_inverse(p, a):
    if a % p == 0:
        return
    assert a * inv_mod(a, p) % p == 1


def test_frac_mod_handles_fractions():
    assert frac_mod(Fraction(1, 2), 7) == 4
    assert frac_mod(Fraction(-12, 5), 7) == frac_mod(-12 * inv_mod(5, 7), 7)
    assert frac_mod(10, 7) == 3


def test_jacobi_small_table():
    # (a|15) for a = 1..14; zeros at multiples of 3 and 5
    vals = [jacobi(a, 15) for a in range(1, 15)]
    assert vals == [1, 1, 0, 1, 0, 0, -1, 1, 0, 0, -1, 0, -1, -1]
    assert jacobi(2, 7) == 1
    assert jacobi(5, 1) == 1
    assert jacobi(-1, 19) == -1
    assert jacobi(-1, 13) == 1


def test_jacobi_rejects_even_modulus():
    with pytest.raises(EvenModulusError):
        jacobi(3, 10)


@given(st.sampled_from(sieve_primes(300)[1:]), st.integers(-200, 200))
def test_jacobi_matches_euler_criterion(p, a):
    s = jacobi(a, p)
    e = pow(a % p, (p - 1) // 2, p)
    assert s == (0 if e == 0 else (1 if e == 1 else -1))


@given(st.integers(1, 500).filter(lambda n: n % 2), st.integers(-300, 300),
       st.integers(-300, 300))
def test_jacobi_multiplicative_in_top(n, a, b):
    assert jacobi(a * b, n) == jacobi(a, n) * jacobi(b, n)


@given(st.sampled_from(sieve_primes(2000)[1:]), st.integers(0, 1999))
def test_sqrt_mod_roundtrip(p, a):
    a %= p
    r = sqrt_mod(a, p)
    if jacobi(a, p) == -1:
        assert r is None
    else:
        assert r is not None and r * r % p == a


@pytest.mark.parametrize("fn, args, error", [
    (sqrt_mod, (8, 9), OutOfRangeError),  # no z has (z|9) = -1
    (sqrt_mod, (4, 21), OutOfRangeError),  # the Tonelli-Shanks chain never reaches 1
    (sqrt_mod, (2, 33), OutOfRangeError),
    (two_squares, (9,), OutOfRangeError),
    (two_squares, (21,), OutOfRangeError),
    (quartic_symbol, (GaussianInt(1, 1), 9), NotCoprimeError),
    (quartic_character, (GaussianInt(2, 1), 25), NotCoprimeError),
    (cubic_character, (EisensteinInt(2, 0), 35), OutOfRangeError),
    (cubic_character, (EisensteinInt(2, 0), 91), OutOfRangeError),
])
def test_composite_moduli_raise(fn, args, error):
    # on a composite modulus the prime-only steps would loop forever or give
    # a meaningless value
    assert issubclass(error, CongruenceError)
    with pytest.raises(error, match="prime"):
        fn(*args)


def test_trial_division_refuses_above_its_limit():
    assert TRIAL_DIVISION_LIMIT == 10**12
    assert is_prime(999_999_999_989)  # the largest prime below the limit
    assert _factorize(TRIAL_DIVISION_LIMIT) == [(2, 12), (5, 12)]
    for fn in (is_prime, _factorize):
        with pytest.raises(OutOfRangeError, match="trial-division limit"):
            fn(TRIAL_DIVISION_LIMIT + 1)


def test_sqrt_mod_both_prime_classes():
    assert sqrt_mod(2, 7) in (3, 4)
    assert sqrt_mod(5, 41) in (13, 28)
    assert sqrt_mod(0, 13) == 0
    assert sqrt_mod(3, 5) is None


def test_mod_pow_and_mod_inv():
    ctx = Ctx(13)
    assert ctx.pw(2, 5) == 6
    assert ctx.inv(2) == 7 and ctx.inv(-11) == 7
    assert ctx.pw(2, -1) == 7 and ctx.pw(2, -5) == inv_mod(6, 13)
    assert ctx.fr(-1, 2) == 6
    with pytest.raises(ZeroInverseError):
        ctx.pw(26, -1)


def test_rational_residue():
    assert frac_mod(Fraction(22, 7), 5) == 22 * inv_mod(7, 5) % 5
    with pytest.raises(DenominatorDivisibleError):
        frac_mod(Fraction(1, 5), 5)
