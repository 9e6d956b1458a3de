"""Binomial coefficients mod p and truncated sums sum_k C(ak, bk) m^k.

Sums of this shape with upper limit about p/a are the left-hand sides of
most statements in the registry.  They are evaluated in one of three ways.

lucas_sum takes the sums of C(4k, 2k) and C(3k, k) to the default upper
limit n = [p/a] in O(log p) steps.  Lemmas 2.2 and 3.1 of the paper give
C(ak, bk) = s^k C(n+k, 2k) mod p for k <= n, with s = -64 and -27, so the
sum is the Morgan-Voyce value b_n(s m) = U_{n+1}(sm+2, 1) - U_n(sm+2, 1),
one uv_mod call.  The lemmas are proved once at import, for every odd
prime not dividing a, from the term ratios of both sides.

ring_sum takes the sums of C(2bk, bk), for every b, and of C(6k, 2k) to
[p/a] by powering in a small quotient ring, O(b^2 log p) steps.  Lemma 2.3
gives C(2j, j) = (-4)^j C(h, j) mod p for j <= h = (p-1)/2 (proved at
import like the lemmas above), so with y = (-4)^b m the sum is
sum_k C(h, bk) y^k, the t^0 coefficient of (1+t)^h mod t^b - y.  Where
b^2 > h it has fewer than b terms, and they are walked instead, in O(h)
steps with no table.  The diagonal C(6k, 2k) is C(3j, j) at even j, so by
Lemma 3.1 its sum is the even part of b_n(z) at n = [p/3], z^2 = 729 m:
the s^0 coefficient of b_n(s) in F_p[s]/(s^2 - 729 m), by the Lucas
ladder over that ring.

ModTables builds factorial tables for one prime, so each C(ak, bk) costs
two multiplications, and sums any diagonal to any upper limit by a scalar
Horner pass over it.  The O(p) tables are paid again at every prime, so
they serve only the shifted-binomial lemmas (binom_shift_lemma_check),
the other diagonals and explicit upper limits (`compute sum --upper`).
ModTables.binom and binom_general have no caller in the registry; they
stay for the tests' oracles and because perfbench's tracer patches them
by name.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import islice, repeat
from math import gcd, prod
from operator import mod, mul, sub
from struct import Struct

from .errors import OutOfRangeError
from .lucas import uv_mod
from .modarith import inv_mod

# Largest prime ModTables accepts.  Its two size-p tables take about 64 MB
# at p = 10^6 (half of inv_fact shares its ints with fact) and grow
# linearly with p.
TABLE_PRIME_LIMIT = 2_000_000


def _strided(table: list[int], step: int, n: int):
    """table[0], table[step], ..., table[(n-1) step]; step 0 repeats table[0]."""
    return table[:step * n:step] if step else repeat(table[0], n)


def check_diag(a: int, b: int, upper: int, p: int) -> None:
    """Refuse the diagonal C(ak, bk), k = 0..upper, mod p unless
    0 <= b <= a and a * upper < p, where every term is a binomial of
    numbers below p."""
    if not 0 <= b <= a:
        raise OutOfRangeError(f"diagonal needs 0 <= b <= a, got a = {a}, b = {b}")
    if a * upper >= p:
        raise OutOfRangeError(f"a*upper = {a * upper} reaches the modulus {p}")


# (a, b) -> s with C(ak, bk) = s^k C(n+k, 2k) mod p for k <= n = [p/a]:
# lemmas 2.2 and 3.1, proved by _prove_lucas_scales below
LUCAS_SCALES = {(4, 2): -64, (3, 1): -27}


def _prove_lucas_scales() -> None:
    """Raise ImportError unless, for each (a, b): s and each unit r mod a,
    n = -r/a makes the term ratio of C(ak, bk) that of s^k C(n+k, 2k):

        prod_{i<=a}(ak+i) / (prod_{i<=b}(bk+i) prod_{i<=a-b}((a-b)k+i))
            = s (n+k+1)(n-k) / ((2k+1)(2k+2)).

    Cleared of denominators, both sides are polynomials in k of degree
    a + 2, so a + 3 points decide it.  At an odd prime p not dividing a,
    with r = p mod a, the integer n = [p/a] is -r/a mod p, and for k < n
    every denominator is a unit mod p; from k = 0, where both terms are 1,
    the terms agree mod p up to k = n."""
    for (a, b), s in LUCAS_SCALES.items():
        c = a - b
        for r in range(1, a):
            if gcd(r, a) != 1:
                continue
            n = Fraction(-r, a)
            for k in range(a + 3):
                up = prod(range(a * k + 1, a * k + a + 1)) * (2 * k + 1) * (2 * k + 2)
                down = prod(range(b * k + 1, b * k + b + 1)) * prod(range(c * k + 1, c * k + c + 1))
                if up != s * (n + k + 1) * (n - k) * down:
                    raise ImportError(
                        f"C({a}k, {b}k) is not ({s})^k C(n+k, 2k) at n = {n}, k = {k}")


_prove_lucas_scales()


def lucas_sum(a: int, b: int, m: int, p: int) -> int:
    """sum_{k<=[p/a]} C(ak, bk) m^k mod the odd prime p, for (a, b) in
    LUCAS_SCALES and m a residue; refused where ModTables refuses it."""
    n = p // a
    check_diag(a, b, n, p)
    P = (LUCAS_SCALES[a, b] * m + 2) % p
    u, v = uv_mod(P, 1, n, p)
    # b_n(sm) = U_{n+1} - U_n, with U_{n+1} = (P U_n + V_n) / 2
    return ((P * u + v) * ((p + 1) // 2) - u) % p


# s with C(2j, j) = s^j C(h, j) mod p for j <= h = (p-1)/2: Lemma 2.3, proved
# by _prove_central_scale below
CENTRAL_SCALE = -4


def _prove_central_scale() -> None:
    """Raise ImportError unless h = -1/2 makes the term ratio of C(2j, j)
    that of s^j C(h, j):

        (2j+1)(2j+2) / (j+1)^2 = s (h-j) / (j+1).

    Cleared of denominators both sides are quadratics in j, so 3 points
    decide it.  At an odd prime p the integer h = (p-1)/2 is -1/2 mod p,
    and for j < h every denominator j+1 is a unit, so from j = 0, where
    both terms are 1, the terms agree mod p up to j = h."""
    h = Fraction(-1, 2)
    for j in range(3):
        if (2 * j + 1) * (2 * j + 2) != CENTRAL_SCALE * (h - j) * (j + 1):
            raise ImportError(
                f"C(2j, j) is not ({CENTRAL_SCALE})^j C(h, j) at h = {h}, j = {j}")


_prove_central_scale()


@lru_cache(maxsize=32)
def _slots(count: int) -> Struct:
    """count little-endian 64-bit slots, lowest first."""
    return Struct(f"<{count}Q")


def ring_sum_takes(a: int, b: int) -> bool:
    """Whether ring_sum sums the diagonal C(ak, bk): a = 2b > 0, or (6, 2).
    Ctx.sum_binom sends (4, 2) to lucas_sum, which it checks first."""
    return a == 2 * b > 0 or (a, b) == (6, 2)


def ring_sum(a: int, b: int, m: int, p: int) -> int:
    """sum_{k<=[p/a]} C(ak, bk) m^k mod the odd prime p, for the diagonals
    of ring_sum_takes and m a residue; refused where ModTables refuses it,
    and for any other diagonal."""
    if not ring_sum_takes(a, b):
        raise OutOfRangeError(f"no ring sum for C({a}k, {b}k)")
    check_diag(a, b, p // a, p)
    if (a, b) == (6, 2):
        # b_n(s) = U_{n+1} - U_n at P = s + 2, Q = 1, over F_p[s]/(s^2 - w):
        # each of U, V is a pair (c0, c1) = c0 + c1 s, and P^2 - 4 = w + 4s
        w = LUCAS_SCALES[3, 1] ** 2 * m % p
        inv2 = (p + 1) // 2
        u0, u1, v0, v1 = 1, 0, 2, 1  # U_1 = 1, V_1 = P; 1 is n's leading bit
        for bit in bin(p // 3)[3:]:
            u0, u1, v0, v1 = ((u0 * v0 + w * u1 * v1) % p, (u0 * v1 + u1 * v0) % p,
                              (v0 * v0 + w * v1 * v1 - 2) % p, 2 * v0 * v1 % p)
            if bit == "1":
                # U_{k+1} = (P U_k + V_k)/2, V_{k+1} = (P V_k + (w + 4s) U_k)/2
                u0, u1, v0, v1 = ((2 * u0 + w * u1 + v0) * inv2 % p,
                                  (u0 + 2 * u1 + v1) * inv2 % p,
                                  (2 * v0 + w * v1 + w * u0 + 4 * w * u1) * inv2 % p,
                                  (v0 + 2 * v1 + w * u1 + 4 * u0) * inv2 % p)
        # the s^0 part of U_{n+1} - U_n = (P U_n + V_n)/2 - U_n
        return (w * u1 + v0) * inv2 % p
    h = (p - 1) // 2
    y = pow(CENTRAL_SCALE, b, p) * m % p
    if h // b < b:
        # fewer terms than slots: squaring b-slot ints would cost more than
        # the h steps of C(h, j) = C(h, j-1) (h-j+1)/j; at b > h only k = 0
        # is left, and the sum is 1
        total = yk = num = den = 1
        for k in range(1, h // b + 1):
            for j in range(b * k - b + 1, b * k + 1):
                num = num * (h + 1 - j) % p
                den = den * j % p
            yk = yk * y % p
            total += num * pow(den, -1, p) * yk
        return total % p
    # (1+t)^h mod t^b - y by squaring: the b coefficients are packed in
    # 64-bit slots, so one big-int product squares them all (Kronecker
    # substitution).  A square times 1 + t has 2b slots, each a sum of at
    # most 2b products of residues, below 2b (p-1)^2 < 2^64
    if 2 * b * (p - 1) ** 2 >> 64:
        raise OutOfRangeError(f"C({a}k, {b}k) at p = {p} overflows the 64-bit slots")
    slots = _slots(b)
    v = 1
    for bit in bin(h)[2:]:
        v *= v
        if bit == "1":
            v += v << 64
        raw = v.to_bytes(16 * b, "little")
        # t^(b+i) = y t^i.  The low and high halves are read as two b-tuples,
        # not one 2b-tuple: CPython 3.11 never reuses a freed tuple of length
        # 20, so at b = 10 its free list would grow at every squaring
        coeffs = [(lo + y * hi) % p
                  for lo, hi in zip(slots.unpack_from(raw), slots.unpack_from(raw, 8 * b))]
        v = int.from_bytes(slots.pack(*coeffs), "little")
    return coeffs[0]


class ModTables:
    """Factorial and inverse-factorial tables for one odd prime."""

    __slots__ = ("p", "fact", "inv_fact")

    def __init__(self, p: int):
        if not 3 <= p <= TABLE_PRIME_LIMIT:
            raise OutOfRangeError(
                f"tables are built for odd primes 3 <= p <= {TABLE_PRIME_LIMIT}, "
                f"got p = {p}")
        self.p = p
        fact = [1] * p
        f = 1
        for i in range(1, p):
            f = f * i % p
            fact[i] = f
        # Wilson's theorem and its converse: (p-1)! = -1 mod p iff p is prime
        if fact[p - 1] != p - 1:
            raise OutOfRangeError(f"tables need a prime modulus, got p = {p}")
        # Wilson's reflection k! (p-1-k)! = (-1)^(k+1) gives 1/k! from
        # (p-1-k)!, negated at even k
        inv_fact = fact[::-1]
        inv_fact[::2] = map(sub, repeat(p), inv_fact[::2])
        self.fact = fact
        self.inv_fact = inv_fact

    def binom(self, n: int, k: int) -> int:
        """C(n, k) mod p for 0 <= n < p; 0 when k is outside [0, n]."""
        if not 0 <= k <= n < self.p:
            if 0 <= k <= n:
                raise OutOfRangeError(f"binom needs n < p = {self.p}, got n = {n}")
            return 0
        return self.fact[n] * self.inv_fact[k] % self.p * self.inv_fact[n - k] % self.p

    def binom_general(self, n: int, k: int) -> int:
        """C(n, k) mod p for arbitrary n >= k >= 0, by base-p digits."""
        if k < 0 or k > n:
            return 0
        p = self.p
        out = 1
        while n or k:
            nd, kd = n % p, k % p
            if kd > nd:
                return 0
            out = out * self.binom(nd, kd) % p
            n //= p
            k //= p
        return out

    def diag(self, a: int, b: int, upper: int) -> list[int]:
        """[C(a k, b k) mod p for k = 0..upper]; requires 0 <= b <= a and
        a * upper < p."""
        check_diag(a, b, upper, self.p)
        n = max(upper + 1, 0)
        return list(map(mod, map(mul, map(mul, _strided(self.fact, a, n),
                                          _strided(self.inv_fact, b, n)),
                                 _strided(self.inv_fact, a - b, n)),
                        repeat(self.p)))

    def sum_diag_pow(self, a: int, b: int, m: int, upper: int) -> int:
        """sum_{k<=upper} C(ak, bk) m^k mod p with m already a residue."""
        p = self.p
        s = 0
        for c in reversed(self.diag(a, b, upper)):
            s = (s * m + c) % p
        return s


# one prime's tables: a check reads its own prime's only, and a sweep moves on
@lru_cache(maxsize=1)
def mod_tables(p: int) -> ModTables:
    return ModTables(p)


_SHIFT_LEMMAS = {
    # name -> (a, b, scale s); the shift base is n0 = [p/a], and
    # binom_shift_lemma_check spells out each identity.  Each reads the scale
    # that _prove_lucas_scales or _prove_central_scale proved at import
    "L2.2": (4, 2, LUCAS_SCALES[4, 2]),
    "L2.3": (2, 1, CENTRAL_SCALE),
    "L3.1": (3, 1, LUCAS_SCALES[3, 1]),
}


def binom_shift_lemma_check(which: str, p: int) -> bool:
    """Check one shifted-binomial lemma at the odd prime p, for every k in range.

    L2.2: C([p/4]+k, [p/4]-k) = C(4k, 2k) / (-64)^k
    L2.3: C((p-1)/2, k)       = C(2k, k)  / (-4)^k
    L3.1: C([p/3]+k, [p/3]-k) = C(3k, k)  / (-27)^k

    Both sides are multiplied by ((a-b)k)!: (2k)! in L2.2 and L3.1, where
    2k <= 2[p/3] < p, and k! in L2.3, where k <= (p-1)/2, so a unit mod p
    and the verdict at each k is unchanged.  With n0 = [p/a] this leaves:

    L2.2: (n0+k)!/(n0-k)! = (4k)!/(2k)! (-64)^-k
    L2.3: n0!/(n0-k)!     = (2k)!/k!    (-4)^-k
    L3.1: (n0+k)!/(n0-k)! = (3k)!/k!    (-27)^-k

    so each k reads one row entry per factorial, walked along the tables.
    Both sides are then multiplied by the unit s^k, so that each k takes
    one reduction: top * low * s^k = num * den, with sk = s^k carried along.
    """
    if which not in _SHIFT_LEMMAS:
        raise OutOfRangeError(f"unknown lemma {which!r}")
    a, b, s = _SHIFT_LEMMAS[which]
    n0 = p // a
    if a * n0 >= p:
        raise OutOfRangeError(f"{which} needs C({a}k, {b}k) with {a}k < p = {p}")
    t = mod_tables(p)
    fact, inv_fact = t.fact, t.inv_fact
    inv_mod(s, p)  # refuses a scale that is not a unit mod p
    s %= p
    # islice walks the rows in place; sliced copies would hold up to 1.5 p
    # more pointers beside the tables.  L2.3's top is the constant n0!, so
    # it starts the running power sk and each top is 1
    if which == "L2.3":
        sk, tops = fact[n0], repeat(1, n0)
    else:
        sk, tops = 1, islice(fact, n0 + 1, 2 * n0 + 1)
    lows = islice(reversed(inv_fact), p - n0, None)  # inv_fact[n0 - 1], ..., inv_fact[0]
    nums = islice(fact, a, a * n0 + 1, a)
    dens = islice(inv_fact, b, b * n0 + 1, b)
    for top, low, num, den in zip(tops, lows, nums, dens):
        sk = sk * s % p
        if (top * low * sk - num * den) % p:
            return False
    return True
