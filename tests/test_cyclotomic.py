"""Cubic and quartic residue symbols over Z[w] and Z[i]."""

from math import gcd

import pytest
from hypothesis import given, strategies as st

from congrkit.cyclotomic import (
    EisensteinInt,
    GaussianInt,
    UnityRoot3,
    UnityRoot4,
    cubic_character,
    cubic_symbol,
    quartic_character,
    quartic_symbol,
)
from congrkit.errors import (
    CongruenceError,
    ModulusDivisibleBy3Error,
    NotCoprimeError,
)
from congrkit.modarith import jacobi, sieve_primes


def eisenstein_mul(x, y):
    # (a + b w)(c + d w) with w^2 = -1 - w
    a, b, c, d = x.a, x.b, y.a, y.b
    return EisensteinInt(a * c - b * d, a * d + b * c - b * d)


def gaussian_mul(x, y):
    return GaussianInt(x.re * y.re - x.im * y.im, x.re * y.im + x.im * y.re)


def test_eisenstein_arithmetic():
    w1 = EisensteinInt(1, 2)  # 1 + 2w
    assert w1.norm == 1 - 2 + 4
    # (1+2w)(1+2w) = 1 + 4w + 4w^2 = -3
    assert eisenstein_mul(w1, w1) == EisensteinInt(-3, 0)
    assert str(EisensteinInt(-8, -18)) == "-8-18w"


def test_gaussian_arithmetic():
    z = GaussianInt(3, 2)
    assert z.norm == 13
    assert gaussian_mul(z, GaussianInt(3, -2)) == GaussianInt(13, 0)
    assert str(GaussianInt(3, -2)) == "3-2i"


def test_unity_roots():
    assert UnityRoot3(2).exponent == 2 and UnityRoot4(3).exponent == 3
    with pytest.raises(CongruenceError):
        UnityRoot3(3)
    with pytest.raises(CongruenceError):
        UnityRoot4(-1)


def test_cubic_symbol_reference_values():
    # calibration points for the shipped root convention
    assert cubic_symbol(EisensteinInt(1, 2), 23) == UnityRoot3(0)
    assert cubic_symbol(EisensteinInt(1 - 9, -18), 13) == UnityRoot3(1)
    assert cubic_symbol(EisensteinInt(5 - 9, -18), 29) == UnityRoot3(2)
    # values feeding the class tables at small leading coefficients
    assert cubic_symbol(EisensteinInt(-23 - 9, -18), 23) == UnityRoot3(0)
    assert cubic_symbol(EisensteinInt(1 - 9, -18), 5) == UnityRoot3(1)
    assert cubic_symbol(EisensteinInt(1 - 9, -18), 7) == UnityRoot3(1)
    assert cubic_symbol(EisensteinInt(5 - 9, -18), 19) == UnityRoot3(1)


def test_cubic_symbol_unit_modulus():
    assert cubic_symbol(EisensteinInt(7, 3), 1) == UnityRoot3(0)


def test_cubic_symbol_guards():
    with pytest.raises(ModulusDivisibleBy3Error):
        cubic_symbol(EisensteinInt(1, 2), 9)
    with pytest.raises(ModulusDivisibleBy3Error):
        cubic_symbol(EisensteinInt(1, 2), 0)
    with pytest.raises(NotCoprimeError):
        cubic_symbol(EisensteinInt(5, 0), 25)


@given(st.integers(-15, 15), st.integers(-15, 15),
       st.integers(-15, 15), st.integers(-15, 15),
       st.sampled_from([m for m in range(2, 60) if m % 3 and m % 2]))
def test_cubic_symbol_multiplicative(a, b, c, d, m):
    x, y = EisensteinInt(a, b), EisensteinInt(c, d)
    if gcd(x.norm, m) == 1 and gcd(y.norm, m) == 1:
        e = (cubic_symbol(x, m).exponent + cubic_symbol(y, m).exponent) % 3
        assert cubic_symbol(eisenstein_mul(x, y), m).exponent == e


def test_cubic_character_detects_cubes():
    for q in sieve_primes(200):
        if q % 3 != 1:
            continue
        cubes = {pow(x, 3, q) for x in range(1, q)}
        for n in range(1, q):
            is_flat = cubic_character(EisensteinInt(n, 0), q).exponent == 0
            assert is_flat == (n in cubes)


def test_cubic_character_trivial_when_inert():
    # every unit is a cube when q = 2 (mod 3)
    for q in [5, 11, 17, 23, 29]:
        for n in range(1, q):
            assert cubic_character(EisensteinInt(n, 0), q).exponent == 0


def test_quartic_character_detects_fourth_powers():
    for p in sieve_primes(200):
        if p % 4 != 1:
            continue
        fourths = {pow(x, 4, p) for x in range(1, p)}
        for n in range(1, p):
            e = quartic_character(GaussianInt(n, 0), p).exponent
            assert (e == 0) == (n in fourths)


def test_quartic_character_square_is_quadratic():
    # exponent parity matches the quadratic character
    for p in [13, 17, 29, 37]:
        for n in range(1, p):
            e = quartic_character(GaussianInt(n, 0), p).exponent
            assert (e % 2 == 0) == (jacobi(n, p) == 1)


def test_quartic_symbol_guards():
    with pytest.raises(NotCoprimeError):
        quartic_symbol(GaussianInt(3, 2), 13)
    with pytest.raises(NotCoprimeError):
        quartic_character(GaussianInt(1, 1), 4)


@given(st.integers(-12, 12), st.integers(-12, 12),
       st.integers(-12, 12), st.integers(-12, 12),
       st.sampled_from([p for p in sieve_primes(80) if p > 2]))
def test_quartic_symbol_multiplicative(a, b, c, d, p):
    x, y = GaussianInt(a, b), GaussianInt(c, d)
    if x.norm % p and y.norm % p:
        e = (quartic_symbol(x, p).exponent + quartic_symbol(y, p).exponent) % 4
        assert quartic_symbol(gaussian_mul(x, y), p).exponent == e
