"""Fast paths against the brute force they replaced, kept here as oracles.

`cubic_roots` finds roots through gcd(f, x^p - x); the oracle scans every
residue.  `intro-zps` sums C(3k,k) 2^k as two diagonal runs cut out by
Lucas's theorem; the oracle reads all p - 1 terms through base-p digits.
"""

import math
import random

import pytest

from congrkit.errors import OutOfRangeError
from congrkit.modarith import is_prime, sieve_primes
from congrkit.registry import Ctx, cubic_roots
from congrkit.registry.statements_binom3 import _zps_sum

PRIMES_5_2000 = [p for p in sieve_primes(2000) if p >= 5]


def scan_roots(c3, c1, c0, p):
    """All residues x with c3 x^3 + c1 x + c0 = 0 mod p, by full scan."""
    if p <= 3:
        raise OutOfRangeError(f"need p > 3, got {p}")
    c3 %= p
    c1 %= p
    c0 %= p
    return {x for x in range(p) if (((c3 * x % p) * x + c1) * x + c0) % p == 0}


def zps_loop(ctx):
    """sum of C(3k,k) 2^k for k = 1..p-1, one binom_general call per term."""
    p = ctx.p
    s = 0
    pow2 = 1
    for k in range(1, p):
        pow2 = pow2 * 2 % p
        s = (s + pow2 * ctx.tables.binom_general(3 * k, k)) % p
    return s


def test_cubic_roots_on_the_registry_families():
    # thm-3.10 at c3 = 27a - 4 and intro-1.3 at (23, 3, 1)
    for p in PRIMES_5_2000:
        for c3 in [27 * a - 4 for a in range(21)] + [23]:
            assert cubic_roots(c3, 3, 1, p) == scan_roots(c3, 3, 1, p), (p, c3)


@pytest.mark.parametrize("p", [5, 7, 11, 13, 31, 101])
def test_cubic_roots_on_random_triples(p):
    rng = random.Random(p)
    for _ in range(400):
        c = [rng.choice((0, rng.randrange(p), rng.randrange(-3 * p, 3 * p))) for _ in range(3)]
        assert cubic_roots(*c, p) == scan_roots(*c, p), c


@pytest.mark.parametrize("coefs, p, roots", [
    ((0, 2, 3), 7, {2}),  # linear: 2x + 3
    ((7, 0, 5), 7, set()),  # c3 = 0 mod p, nonzero constant
    ((0, 0, 0), 7, set(range(7))),  # the zero polynomial
    ((11, 22, -33), 11, set(range(11))),  # zero mod p
    ((1, -3, 2), 7, {1, 5}),  # (x-1)^2 (x+2): double root
    ((1, 0, -1), 7, {1, 2, 4}),  # three distinct roots: the splitting step
    ((1, -7, 6), 101, {1, 2, 98}),  # (x-1)(x-2)(x+3)
    ((2, 0, -2), 13, {1, 3, 9}),  # non-monic, three roots
    ((1, 0, -2), 7, set()),  # 2 is no cube mod 7
    ((1, 1, 1), 5, set()),  # no roots
])
def test_cubic_roots_edge_cases(coefs, p, roots):
    assert cubic_roots(*coefs, p) == scan_roots(*coefs, p) == roots


def test_zps_sum_matches_the_full_loop():
    for p in sieve_primes(3000):
        if p >= 7:
            ctx = Ctx(p)
            assert _zps_sum(ctx) == zps_loop(ctx), p


def test_zps_sum_above_1e5_in_both_classes_mod_4():
    big = [q for q in range(100_000, 100_200) if is_prime(q)]
    for r in (1, 3):
        ctx = Ctx(next(q for q in big if q % 4 == r))
        assert _zps_sum(ctx) == zps_loop(ctx)


@pytest.mark.parametrize("p", [7, 11, 13])
def test_zps_sum_next_to_the_run_boundaries(p):
    # the second run is (p+1)/2..[(2p-1)/3]: k = 4 at 7, 6..7 at 11, 7..8 at 13
    exact = sum(math.comb(3 * k, k) * 2**k for k in range(1, p)) % p
    assert _zps_sum(Ctx(p)) == zps_loop(Ctx(p)) == exact
