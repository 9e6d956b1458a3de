"""Primes, canonical residues modulo an odd prime, and the Jacobi symbol.

Residues are always kept in [0, p-1].  Rationals are admitted wherever a
value is reduced mod p, provided p does not divide the denominator.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import (
    DenominatorDivisibleError,
    EvenModulusError,
    OutOfRangeError,
    ZeroInverseError,
)

Rational = Fraction

# is_prime and the cubic symbol's factorization refuse n above this bound:
# trial division costs about sqrt(n) steps, some 0.1 s at the bound itself.
TRIAL_DIVISION_LIMIT = 10**12

# sieve_primes refuses a limit above this bound: at the bound itself it takes
# about 4.5 s and 350 MB peak RSS (5,761,455 primes; CPython 3.11, 2 vCPUs),
# and both grow linearly beyond it.
SIEVE_LIMIT = 10**8


def sieve_primes(limit: int) -> list[int]:
    """All primes <= limit <= SIEVE_LIMIT, ascending (odd-only bytearray sieve)."""
    if limit > SIEVE_LIMIT:
        raise OutOfRangeError(f"sieve limit {limit} is above {SIEVE_LIMIT}")
    if limit < 2:
        return []
    half = (limit - 1) // 2
    composite = bytearray(half + 1)  # slot j stands for 2j + 1
    for j in range(1, min((math.isqrt(limit) + 1) // 2, half) + 1):
        if not composite[j]:
            p = 2 * j + 1
            first = (p * p - 1) // 2
            if first > half:
                continue
            composite[first::p] = b"\x01" * len(range(first, half + 1, p))
    return [2] + [2 * j + 1 for j in range(1, half + 1) if not composite[j]]


def is_prime(n: int) -> bool:
    """Deterministic trial division, for n up to TRIAL_DIVISION_LIMIT."""
    if n > TRIAL_DIVISION_LIMIT:
        raise OutOfRangeError(f"{n} is above the trial-division limit {TRIAL_DIVISION_LIMIT}")
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0 or n % 3 == 0:
        return False
    f = 5
    while f * f <= n:
        if n % f == 0 or n % (f + 2) == 0:
            return False
        f += 6
    return True


def inv_mod(a: int, p: int) -> int:
    """Inverse of a modulo the odd prime p, raising on a == 0 (mod p)."""
    a %= p
    if a == 0:
        raise ZeroInverseError(f"0 has no inverse mod {p}")
    return pow(a, -1, p)


def frac_mod(q: Rational | int, p: int) -> int:
    """Reduce a rational (or integer) to its canonical residue mod p."""
    if isinstance(q, int):
        return q % p
    num, den = q.numerator, q.denominator
    if den % p == 0:
        raise DenominatorDivisibleError(f"{q} has denominator divisible by {p}")
    return num * pow(den, -1, p) % p


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a|n) for odd positive n; (a|1) = 1.

    Computed by the binary reciprocity loop (Cohen, Alg. 1.4.10): each
    round strips every factor 2 of a at once, then flips the sign by
    reciprocity and reduces.  Returns -1, 0 or 1.
    """
    if n <= 0 or not n & 1:
        raise EvenModulusError(f"Jacobi symbol needs odd positive bottom, got {n}")
    a %= n
    result = 1
    while a:
        s = (a & -a).bit_length() - 1  # 2^s exactly divides a
        if s:
            a >>= s
            if s & 1 and n & 7 in (3, 5):  # (2|n) = -1
                result = -result
        if a & n & 2:  # both odd, so both are 3 mod 4
            result = -result
        a, n = n % a, a
    return result if n == 1 else 0


def sqrt_mod(a: int, p: int) -> int | None:
    """A square root of a mod odd prime p, or None when a is a non-residue.

    A composite p on which the search for a non-residue or the
    Tonelli-Shanks chain would not end raises OutOfRangeError."""
    a %= p
    if a == 0:
        return 0
    if jacobi(a, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # Tonelli-Shanks
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while jacobi(z, p) != -1:
        z += 1
        if z == p:
            raise OutOfRangeError(f"{p} is not prime")
    c = pow(z, q, p)
    x = pow(a, (q + 1) // 2, p)
    t = pow(a, q, p)
    m = s
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
            if i == m:
                raise OutOfRangeError(f"{p} is not prime")
        b = pow(c, 1 << (m - i - 1), p)
        x = x * b % p
        t = t * b * b % p
        c = b * b % p
        m = i
    return x
