"""Exact sums of binomial coefficients over residue classes of the index.

T_{r(m)}^n = sum of C(n, k) over 0 <= k <= n with k = r (mod m), kept in
arbitrary precision.  Alongside the closed forms for m = 3, 4, 6 there is
the delta5 combination used to study the m = 5 family; its quoted Lucas
closed forms fail at small odd n, so an audit helper reports the mismatches
rather than hiding them.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import islice

from .errors import IndexTooLargeError, OutOfRangeError, UnsupportedModulusError
from .record import FrozenRecord

T_SUM_INDEX_LIMIT = 2000
RECURRENCE_INDEX_LIMIT = 500


class TSumKey(FrozenRecord):
    __slots__ = ("n", "m", "r")

    def __init__(self, n: int, m: int, r: int):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "r", r)
        if n < 0 or m <= 0 or not 0 <= r < m:
            raise OutOfRangeError(f"bad T-sum key {self}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.n == other.n and self.m == other.m and self.r == other.r

    def __hash__(self) -> int:
        return hash((self.n, self.m, self.r))


# rows n and n + 1: all that the checks at one prime read
@lru_cache(maxsize=2)
def _binom_row(n: int) -> tuple[int, ...]:
    row = [1] * (n + 1)
    c = 1
    for k in range(1, n + 1):
        c = c * (n - k + 1) // k
        row[k] = c
    return tuple(row)


def t_sum_exact(key: TSumKey) -> int:
    """Exact T_{r(m)}^n by direct summation."""
    if key.n > T_SUM_INDEX_LIMIT:
        raise IndexTooLargeError(f"exact T-sums guarded to n <= {T_SUM_INDEX_LIMIT}")
    # islice, not row[r::m]: CPython 3.11 never reuses a freed tuple of
    # length 20, so a slice of that length would grow its free list per call
    return sum(islice(_binom_row(key.n), key.r, None, key.m))


def t0_closed(m: int, n: int) -> int:
    """T_{0(m)}^n by the known closed forms, m in {3, 4, 6}.

    m=3:  (2^n + 2(-1)^n)/3 when 3 | n, else (2^n - (-1)^n)/3.
    m=4:  split on n mod 4, mixing 2^{n-1} with (-1)^{[n/4]} 2^{[n/2]}.
    m=6:  (2^n + g(n mod 12))/6 with g built from powers of 3.
    """
    if m not in (3, 4, 6):
        raise UnsupportedModulusError(f"no closed form wired for m={m}")
    if n < 0:
        raise OutOfRangeError("n must be non-negative")
    if n == 0:
        return 1
    if m == 3:
        if n % 3 == 0:
            return (2**n + 2 * (-1) ** n) // 3
        return (2**n - (-1) ** n) // 3
    if m == 4:
        sign = (-1) ** (n // 4)
        if n % 4 in (0, 1):
            return (2 ** (n - 1) + sign * 2 ** (n // 2)) // 2
        if n % 4 == 2:
            return 2 ** (n - 2)
        return (2 ** (n - 1) - sign * 2 ** (n // 2)) // 2
    residual = {
        0: lambda h: 2 * (3**h + 1),
        1: lambda h: 3**h + 1,
        2: lambda h: 3**h - 1,
        3: lambda h: -2,
        4: lambda h: -(3**h) - 1,
        5: lambda h: -(3**h) + 1,
        6: lambda h: 2 * (1 - 3**h),
        7: lambda h: -(3**h) + 1,
        8: lambda h: -(3**h) - 1,
        9: lambda h: -2,
        10: lambda h: 3**h - 1,
        11: lambda h: 3**h + 1,
    }
    # h is the integer part entering 3^{n/2} or 3^{(n+1)/2} per parity
    cls = n % 12
    h = n // 2 if cls in (0, 2, 4, 6, 8, 10) else (n + 1) // 2
    return (2**n + residual[cls](h)) // 6


def t_recurrences_check(n: int, m: int) -> bool:
    """Both index identities at (n, m), for every residue class r:
    T_{r(m)}^n = T_{n-r(m)}^n and T_{r(m)}^{n+1} = T_{r(m)}^n + T_{r-1(m)}^n."""
    if n > RECURRENCE_INDEX_LIMIT:
        raise IndexTooLargeError(f"recurrence check guarded to n <= {RECURRENCE_INDEX_LIMIT}")
    t_n = [t_sum_exact(TSumKey(n, m, r)) for r in range(m)]
    t_n1 = [t_sum_exact(TSumKey(n + 1, m, r)) for r in range(m)]
    for r in range(m):
        if t_n[r] != t_n[(n - r) % m]:
            return False
        if t_n1[r] != t_n[r] + t_n[(r - 1) % m]:
            return False
    return True


def _lucas_number(n: int) -> int:
    """Exact Lucas number L_n for n >= 0, by index doubling from
    (L_k, L_{k+1}): L_{2k} = L_k^2 - 2(-1)^k, L_{2k+1} = L_k L_{k+1} - (-1)^k
    and L_{2k+2} = L_{k+1}^2 + 2(-1)^k."""
    if n < 0:
        raise OutOfRangeError(f"Lucas index must be non-negative, got {n}")
    a, b, sign = 2, 1, 1  # L_k, L_{k+1}, (-1)^k at k = 0
    for bit in bin(n)[2:]:
        if bit == "1":
            a, b, sign = a * b - sign, b * b + 2 * sign, -1
        else:
            a, b, sign = a * a - 2 * sign, a * b - sign, 1
    return a


def delta5(r: int, n: int) -> int:
    """5 T_{(n-1)/2 + r (5)}^n - 2^n for odd n; 5 T_{n/2 + r (5)}^n - 2^n for even."""
    if n < 1:
        raise OutOfRangeError("delta5 needs n >= 1")
    base = (n - 1) // 2 if n % 2 else n // 2
    return 5 * t_sum_exact(TSumKey(n, 5, (base + r) % 5)) - 2**n


def delta5_claimed(r: int, n: int) -> int:
    """The quoted Lucas-number closed form for delta5 (r in -2..2)."""
    if r == 0:
        return 2 * (-1) ** n * _lucas_number(n)
    if r in (1, -1):
        return (-1) ** n * _lucas_number(n - 1)
    if r in (2, -2):
        return (-1) ** (n + 1) * _lucas_number(n + 1)
    raise OutOfRangeError("claimed closed forms cover r in -2..2 only")


def delta5_findings(n: int) -> list[dict]:
    """Exact-versus-claimed audit of delta5 at one n; one record per mismatch."""
    out = []
    for r in range(-2, 3):
        got = delta5(r, n)
        claimed = delta5_claimed(r, n)
        if got != claimed:
            out.append({"r": r, "n": n, "exact": got, "claimed": claimed})
    return out


_T5_ROWS = {
    1: ("2*L[(p-1)/2]", lambda p: 2 * _lucas_number((p - 1) // 2)),
    3: ("-2*L[(p-1)/2]", lambda p: -2 * _lucas_number((p - 1) // 2)),
    7: ("-L[(p-3)/2]", lambda p: -_lucas_number((p - 3) // 2)),
    19: ("-L[(p-3)/2]", lambda p: -_lucas_number((p - 3) // 2)),
    9: ("-L[(p+1)/2]", lambda p: -_lucas_number((p + 1) // 2)),
    13: ("-L[(p+1)/2]", lambda p: -_lucas_number((p + 1) // 2)),
    11: ("L[(p+1)/2]", lambda p: _lucas_number((p + 1) // 2)),
    17: ("L[(p-3)/2]", lambda p: _lucas_number((p - 3) // 2)),
}


def t5_row_claim(p: int) -> tuple[int, str, int]:
    """Exact 5 T_{0(5)}^{(p-1)/2} - 2^{(p-1)/2} next to its claimed row value.

    Returns (exact, row label, claimed).  p must be a prime > 5 (any prime
    not dividing 20 lands in one of the eight rows).
    """
    cls = p % 20
    if cls not in _T5_ROWS:
        raise OutOfRangeError(f"p={p} falls outside the tabulated classes mod 20")
    n = (p - 1) // 2
    exact = 5 * t_sum_exact(TSumKey(n, 5, 0)) - 2**n
    label, fn = _T5_ROWS[cls]
    return exact, label, fn(p)


def t10_lucas_identity(p: int) -> tuple[int, int]:
    """Exact pair (10 T_{0(10)}^{(p-1)/2} - 2^{(p-1)/2}, -2 L_{(p-1)/2}),
    which agree for primes p = 11 (mod 20)."""
    if p % 20 != 11:
        raise OutOfRangeError("identity stated for p = 11 (mod 20)")
    n = (p - 1) // 2
    return 10 * t_sum_exact(TSumKey(n, 10, 0)) - 2**n, -2 * _lucas_number(n)

