"""Binomial coefficients mod p and truncated sums sum_k C(ak, bk) m^k.

Sums of this shape with upper limit about p/a are the left-hand sides of
most statements in the registry.  Per prime we build factorial tables once,
so each C(ak, bk) costs two multiplications; a whole sum is a single Horner
pass over the diagonal sequence.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import OutOfRangeError
from .modarith import inv_mod

# Largest prime ModTables accepts.  Its two size-p tables take about 100 MB
# at p = 10^6 and grow linearly with p.
TABLE_PRIME_LIMIT = 2_000_000


class ModTables:
    """Factorial and inverse-factorial tables for one odd prime."""

    __slots__ = ("p", "fact", "inv_fact", "_diag")

    def __init__(self, p: int):
        if p > TABLE_PRIME_LIMIT:
            raise OutOfRangeError(
                f"tables are built for p <= {TABLE_PRIME_LIMIT}, got p = {p}")
        self.p = p
        fact = [1] * p
        f = 1
        for i in range(1, p):
            f = f * i % p
            fact[i] = f
        inv_fact = [1] * p
        inv_fact[p - 1] = inv_mod(fact[p - 1], p)
        for i in range(p - 1, 0, -1):
            inv_fact[i - 1] = inv_fact[i] * i % p
        self.fact = fact
        self.inv_fact = inv_fact
        self._diag: dict[tuple[int, int], list[int]] = {}

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
        """[C(a k, b k) mod p for k = 0..upper]; requires a * upper < p."""
        if a * upper >= self.p:
            raise OutOfRangeError(
                f"a*upper = {a * upper} reaches the modulus {self.p}"
            )
        key = (a, b)
        seq = self._diag.get(key)
        if seq is None or len(seq) <= upper:
            c = a - b
            seq = [
                self.fact[a * k] * self.inv_fact[b * k] % self.p * self.inv_fact[c * k] % self.p
                for k in range(upper + 1)
            ]
            self._diag[key] = seq
        return seq[: upper + 1]

    def sum_diag_pow(self, a: int, b: int, m: int, upper: int) -> int:
        """sum_{k<=upper} C(ak, bk) m^k mod p with m already a residue."""
        p = self.p
        s = 0
        for c in reversed(self.diag(a, b, upper)):
            s = (s * m + c) % p
        return s


@lru_cache(maxsize=8)
def mod_tables(p: int) -> ModTables:
    return ModTables(p)


_SHIFT_LEMMAS = {
    # name -> (a, scale s); the shift base is n0 = [p/a], and
    # binom_shift_lemma_check spells out each identity
    "L2.2": (4, -64),
    "L2.3": (2, -4),
    "L3.1": (3, -27),
}


def binom_shift_lemma_check(which: str, p: int) -> bool:
    """Check one shifted-binomial lemma at the odd prime p, for every k in range.

    L2.2: C([p/4]+k, [p/4]-k) = C(4k, 2k) / (-64)^k
    L2.3: C((p-1)/2, k)       = C(2k, k)  / (-4)^k
    L3.1: C([p/3]+k, [p/3]-k) = C(3k, k)  / (-27)^k
    """
    if which not in _SHIFT_LEMMAS:
        raise OutOfRangeError(f"unknown lemma {which!r}")
    t = mod_tables(p)
    if which == "L2.3":
        n0 = (p - 1) // 2
        inv_s = inv_mod(-4, p)
        sk = 1
        for k in range(1, n0 + 1):
            sk = sk * inv_s % p
            if t.binom(n0, k) != t.binom(2 * k, k) * sk % p:
                return False
        return True
    a, s = _SHIFT_LEMMAS[which]
    n0 = p // a
    b = a // 2 if which == "L2.2" else 1
    inv_s = inv_mod(s, p)
    sk = 1
    for k in range(1, n0 + 1):
        sk = sk * inv_s % p
        if t.binom(n0 + k, n0 - k) != t.binom(a * k, b * k) * sk % p:
            return False
    return True
