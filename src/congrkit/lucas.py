"""Lucas sequences U_n(P, Q), V_n(P, Q) exactly and modulo odd primes.

Both sequences satisfy x_{n+1} = P x_n - Q x_{n-1} with U_0 = 0, U_1 = 1,
V_0 = 2, V_1 = P.  The modular evaluator runs in O(log n) by index
doubling, carrying Q^n along:

    U_{2n} = U_n V_n,   V_{2n} = V_n^2 - 2 Q^n,
    U_{n+1} = (P U_n + V_n) / 2,   V_{n+1} = (P V_n + (P^2 - 4Q) U_n) / 2.
"""

from __future__ import annotations

from .errors import IndexTooLargeError, OutOfRangeError

EXACT_INDEX_LIMIT = 500


def uv_mod(P: int, Q: int, n: int, p: int) -> tuple[int, int]:
    """(U_n, V_n) mod an odd p >= 3 for integer residues P, Q; the fast core."""
    if n < 0 or p < 3 or p % 2 == 0:
        raise OutOfRangeError(
            f"need a Lucas index n >= 0 and an odd modulus p >= 3, got n={n}, p={p}")
    if n == 0:
        return 0, 2 % p
    P %= p
    Q %= p
    inv2 = (p + 1) // 2  # inverse of 2 mod an odd p
    disc = (P * P - 4 * Q) % p
    u, v, qn = 0, 2 % p, 1  # state at index m, plus Q^m
    for bit in bin(n)[2:]:
        u, v, qn = u * v % p, (v * v - 2 * qn) % p, qn * qn % p
        if bit == "1":
            u, v, qn = (
                (P * u + v) * inv2 % p,
                (P * v + disc * u) * inv2 % p,
                qn * Q % p,
            )
    return u, v


def lucas_uv_exact(P: int, Q: int, n: int) -> tuple[int, int]:
    """Exact integer (U_n, V_n), guarded to n <= 500 to keep sizes sane."""
    if n > EXACT_INDEX_LIMIT:
        raise IndexTooLargeError(f"exact Lucas values guarded to n <= {EXACT_INDEX_LIMIT}")
    if n < 0:
        raise OutOfRangeError(f"Lucas index must be non-negative, got {n}")
    u0, u1 = 0, 1
    v0, v1 = 2, P
    for _ in range(n):
        u0, u1 = u1, P * u1 - Q * u0
        v0, v1 = v1, P * v1 - Q * v0
    return u0, v0

