"""Gaussian and Eisenstein integers, their norms, and power-residue symbols.

The cubic symbol of a + b*w (w a primitive cube root of unity) for a
rational modulus m coprime to 3 is assembled multiplicatively from m's
prime factorization: an inert prime q = 2 (mod 3) contributes the Euler
power with exponent (q^2-1)/3 computed in the quotient ring mod q, and a
split prime q = 1 (mod 3) contributes the product of the characters at its
two conjugate prime ideals, each with exponent (q-1)/3.  The quartic symbol
for an odd prime modulus follows the same shape with i in place of w.

The product over conjugate ideals collapses to 1 on rational arguments, so
single-ideal characters are exposed separately; they are what carries the
"is a cube / fourth power" meaning for rational residues.
"""

from __future__ import annotations

from math import gcd

from .errors import (
    CongruenceError,
    ModulusDivisibleBy3Error,
    NotCoprimeError,
    OutOfRangeError,
)
from .modarith import TRIAL_DIVISION_LIMIT, inv_mod, is_prime, sqrt_mod
from .record import FrozenRecord


class GaussianInt(FrozenRecord):
    __slots__ = ("re", "im")

    def __init__(self, re: int, im: int):
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    @property
    def norm(self) -> int:
        return self.re * self.re + self.im * self.im

    def __str__(self) -> str:
        return f"{self.re}{self.im:+d}i"


class EisensteinInt(FrozenRecord):
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __hash__(self) -> int:
        return hash((self.a, self.b))

    @property
    def norm(self) -> int:
        return self.a * self.a - self.a * self.b + self.b * self.b

    def __str__(self) -> str:
        return f"{self.a}{self.b:+d}w"


class UnityRoot3(FrozenRecord):
    __slots__ = ("exponent",)

    def __init__(self, exponent: int):
        if exponent not in (0, 1, 2):
            raise CongruenceError(f"exponent {exponent} not canonical")
        object.__setattr__(self, "exponent", exponent)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.exponent == other.exponent

    def __hash__(self) -> int:
        return hash((self.exponent,))


class UnityRoot4(FrozenRecord):
    __slots__ = ("exponent",)

    def __init__(self, exponent: int):
        if exponent not in (0, 1, 2, 3):
            raise CongruenceError(f"exponent {exponent} not canonical")
        object.__setattr__(self, "exponent", exponent)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.exponent == other.exponent

    def __hash__(self) -> int:
        return hash((self.exponent,))


def _quad_pow(x0: int, x1: int, e: int, p: int, c0: int, c1: int) -> tuple[int, int]:
    """(x0 + x1 T)^e mod p in Z[T]/(T^2 - c1 T - c0)."""
    r0, r1 = 1, 0
    x0, x1 = x0 % p, x1 % p
    while e:
        if e & 1:
            r0, r1 = (r0 * x0 + r1 * x1 * c0) % p, (r0 * x1 + r1 * x0 + r1 * x1 * c1) % p
        x0, x1 = (x0 * x0 + x1 * x1 * c0) % p, (x1 * (2 * x0 + x1 * c1)) % p
        e >>= 1
    return r0, r1


def _factorize(n: int) -> list[tuple[int, int]]:
    if n > TRIAL_DIVISION_LIMIT:
        raise OutOfRangeError(f"{n} is above the trial-division limit {TRIAL_DIVISION_LIMIT}")
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def _omega_roots(q: int) -> tuple[int, int]:
    """Both roots of t^2 + t + 1 = 0 mod a prime q = 1 (mod 3)."""
    s = sqrt_mod(-3 % q, q)
    if s is None:
        raise CongruenceError(f"-3 is a non-residue mod {q}")
    inv2 = inv_mod(2, q)
    t1 = (s - 1) * inv2 % q
    t2 = (-s - 1) * inv2 % q
    return (t1, t2) if t1 < t2 else (t2, t1)


def _match_root_power(r: int, t: int, order: int, q: int) -> int:
    cur = 1
    for j in range(order):
        if r == cur:
            return j
        cur = cur * t % q
    raise CongruenceError(f"{r} is not a power of {t} mod {q}")


def _cubic_exp_split(alpha: EisensteinInt, q: int, t: int) -> int:
    """Character exponent at the ideal of q where w maps to t."""
    x = (alpha.a + alpha.b * t) % q
    if x == 0:
        raise NotCoprimeError(f"{alpha} is not coprime to {q}")
    r = pow(x, (q - 1) // 3, q)
    return _match_root_power(r, t, 3, q)


def _cubic_exp_inert(alpha: EisensteinInt, q: int) -> int:
    r0, r1 = _quad_pow(alpha.a, alpha.b, (q * q - 1) // 3, q, -1, -1)
    targets = {(1, 0): 0, (0, 1): 1, ((q - 1) % q, (q - 1) % q): 2}
    key = (r0, r1)
    if key not in targets:
        raise CongruenceError(f"{alpha}^((q^2-1)/3) mod {q} is not a cube root of unity")
    return targets[key]


def _cubic_exp_prime(alpha: EisensteinInt, q: int) -> int:
    if q % 3 == 2:
        return _cubic_exp_inert(alpha, q)
    t1, t2 = _omega_roots(q)
    return (_cubic_exp_split(alpha, q, t1) + _cubic_exp_split(alpha, q, t2)) % 3


def cubic_symbol(alpha: EisensteinInt, m: int) -> UnityRoot3:
    """Cubic Jacobi symbol of alpha for a positive rational modulus m, 3 | m excluded."""
    if m <= 0 or m % 3 == 0:
        raise ModulusDivisibleBy3Error(f"modulus {m} must be positive and coprime to 3")
    if gcd(alpha.norm, m) != 1:
        raise NotCoprimeError(f"norm of {alpha} shares a factor with {m}")
    total = 0
    for q, e in _factorize(m):
        total = (total + e * _cubic_exp_prime(alpha, q)) % 3
    return UnityRoot3(total)


def cubic_character(alpha: EisensteinInt, q: int) -> UnityRoot3:
    """Single-ideal cubic character at a prime q: the canonical (smaller) root
    of t^2+t+1 when q = 1 (mod 3), the inert Euler power when q = 2 (mod 3).

    This is the object with residue meaning: for rational a coprime to a
    split q, the value is w^0 exactly when a is a cube mod q.
    """
    if q % 3 == 0:
        raise ModulusDivisibleBy3Error(f"prime {q} must be coprime to 3")
    if not is_prime(q):
        raise OutOfRangeError(f"modulus {q} must be a prime")
    if gcd(alpha.norm, q) != 1:
        raise NotCoprimeError(f"norm of {alpha} shares a factor with {q}")
    if q % 3 == 2:
        return UnityRoot3(_cubic_exp_inert(alpha, q))
    t1, _ = _omega_roots(q)
    return UnityRoot3(_cubic_exp_split(alpha, q, t1))


def _quartic_exp_split(alpha: GaussianInt, p: int, u: int) -> int:
    x = (alpha.re + alpha.im * u) % p
    if x == 0:
        raise NotCoprimeError(f"{alpha} is not coprime to {p}")
    r = pow(x, (p - 1) // 4, p)
    return _match_root_power(r, u, 4, p)


def _quartic_exp_inert(alpha: GaussianInt, p: int) -> int:
    r0, r1 = _quad_pow(alpha.re, alpha.im, (p * p - 1) // 4, p, -1, 0)
    targets = {(1, 0): 0, (0, 1): 1, ((p - 1) % p, 0): 2, (0, (p - 1) % p): 3}
    key = (r0, r1)
    if key not in targets:
        raise CongruenceError(f"{alpha}^((p^2-1)/4) mod {p} is not a fourth root of unity")
    return targets[key]


def _quartic_guard(alpha: GaussianInt, p: int) -> None:
    if p < 3 or not is_prime(p):
        raise NotCoprimeError(f"modulus {p} must be an odd prime")
    if alpha.norm % p == 0:
        raise NotCoprimeError(f"norm of {alpha} is divisible by {p}")


def quartic_symbol(alpha: GaussianInt, p: int) -> UnityRoot4:
    """Quartic Jacobi symbol of alpha for an odd prime p."""
    _quartic_guard(alpha, p)
    if p % 4 == 3:
        return UnityRoot4(_quartic_exp_inert(alpha, p))
    u = sqrt_mod(p - 1, p)
    return UnityRoot4((_quartic_exp_split(alpha, p, u) + _quartic_exp_split(alpha, p, p - u)) % 4)


def quartic_character(alpha: GaussianInt, p: int) -> UnityRoot4:
    """Single-ideal quartic character (canonical root of x^2+1) at an odd prime.

    For rational a and p = 1 (mod 4): value i^0 exactly when a is a fourth
    power mod p, and its square matches the quadratic character of a.
    """
    _quartic_guard(alpha, p)
    if p % 4 == 3:
        return UnityRoot4(_quartic_exp_inert(alpha, p))
    u = sqrt_mod(p - 1, p)
    return UnityRoot4(_quartic_exp_split(alpha, p, min(u, p - u)))
