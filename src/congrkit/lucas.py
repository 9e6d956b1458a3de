"""Lucas sequences U_n(P, Q), V_n(P, Q) exactly and modulo odd primes.

Both sequences satisfy x_{n+1} = P x_n - Q x_{n-1} with U_0 = 0, U_1 = 1,
V_0 = 2, V_1 = P.  The modular evaluator runs in O(log n) on the pair
(U_m, U_{m+1}), doubling the index at each bit of n and stepping once more
on a set bit (Joye and Quisquater, Electronics Letters, 1996):

    U_{2m} = U_m (2 U_{m+1} - P U_m),   U_{2m+1} = U_{m+1}^2 - Q U_m^2,
    U_{2m+2} = U_{m+1} (P U_{m+1} - 2 Q U_m),

and reads V_n = 2 U_{n+1} - P U_n at the end.  These are identities of
integer polynomials in P and Q, so nothing is halved and no power of Q is
carried.
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
    u, w = 1, P  # (U_m, U_{m+1}) at m = 1, n's leading bit
    for bit in bin(n)[3:]:
        qu = Q * u
        if bit == "1":  # to m' = 2m + 1
            u, w = (w * w - qu * u) % p, w * (P * w - 2 * qu) % p
        else:  # to m' = 2m
            u, w = u * (2 * w - P * u) % p, (w * w - qu * u) % p
    return u, (2 * w - P * u) % p


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

