"""Integral binary quadratic forms of negative discriminant.

[a, b, c] stands for a x^2 + b x y + c y^2.  Provides reduction to the
canonical representative, enumeration of the primitive reduced forms of a
discriminant, exhaustive representation search for a target value, the
two-squares decomposition of p = 1 (mod 4), and classification of a prime
by reduction: with b^2 = D (mod 4p), [p, b, (b^2 - D)/4p] represents p, so
its reduced class is the one class of discriminant D, up to inversion, that
represents p (Cox, Primes of the Form x^2 + ny^2, Lemma 2.5 and Thm 2.8).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from math import gcd, isqrt

from .errors import (
    InvalidDiscriminantError,
    NoneRepresentsError,
    NonNegativeDiscriminantError,
    NotOneModFourError,
    OutOfRangeError,
)
from .modarith import is_prime, sqrt_mod

CLASS_GROUP_DISC_LIMIT = 10**7
# y window cap of represent; a reduced form needs <= sqrt(4p/3) < 1.2e6 at any p <= 10^12
REPRESENT_WINDOW_LIMIT = 10**7


@dataclass(frozen=True)
class QuadForm:
    a: int
    b: int
    c: int

    @property
    def disc(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def opposite(self) -> "QuadForm":
        return QuadForm(self.a, -self.b, self.c)

    def value(self, x: int, y: int) -> int:
        return self.a * x * x + self.b * x * y + self.c * y * y

    def is_reduced(self) -> bool:
        a, b, c = self.a, self.b, self.c
        if not (-a < b <= a <= c):
            return False
        return b >= 0 or a != c

    def __str__(self) -> str:
        return f"[{self.a},{self.b},{self.c}]"


def _check_definite(f: QuadForm):
    if f.disc >= 0:
        raise NonNegativeDiscriminantError(f"{f} has discriminant {f.disc} >= 0")
    if f.a <= 0:
        raise OutOfRangeError(f"{f} is not positive definite")


def reduce(f: QuadForm) -> QuadForm:
    """Canonical reduced form of f's class, by alternating translation
    [a,b,c] -> [a, b+2ak, a k^2 + b k + c] and swap [a,b,c] -> [c,-b,a]."""
    _check_definite(f)
    a, b, c = f.a, f.b, f.c
    while True:
        # translate b into (-a, a]
        if not -a < b <= a:
            k = (a - b) // (2 * a)
            c = a * k * k + b * k + c
            b = b + 2 * a * k
        if a > c or (a == c and b < 0):
            a, b, c = c, -b, a
            continue
        return QuadForm(a, b, c)


def class_group(D: int) -> list[QuadForm]:
    """All primitive reduced forms of discriminant D < 0, sorted by (a, b);
    the enumeration takes O(|D|) steps, so |D| is bounded."""
    if D >= 0 or D % 4 not in (0, 1):
        raise InvalidDiscriminantError(f"{D} is not a negative discriminant")
    if -D > CLASS_GROUP_DISC_LIMIT:
        raise OutOfRangeError(f"|D| = {-D} is above the class group limit {CLASS_GROUP_DISC_LIMIT}")
    out = []
    a = 1
    while 3 * a * a <= -D:
        for b in range(-a + 1, a + 1):
            if (b - D) % 2:
                continue
            num = b * b - D
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if a == c and b < 0:
                continue
            if gcd(gcd(a, b), c) != 1:
                continue
            out.append(QuadForm(a, b, c))
        a += 1
    return sorted(out, key=lambda f: (f.a, f.b))


def represent(f: QuadForm, p: int) -> list[tuple[int, int]]:
    """All integer pairs (x, y) with f(x, y) = p, sorted.

    Complete: any solution has |y| <= sqrt(4 a p / |D|), so scanning y in
    that window and solving the quadratic in x finds everything.  A window
    wider than REPRESENT_WINDOW_LIMIT is refused.
    """
    _check_definite(f)
    target = int(p)
    if target <= 0:
        return []
    d = -f.disc
    ymax = isqrt(4 * f.a * target // d) + 1
    if ymax > REPRESENT_WINDOW_LIMIT:
        raise OutOfRangeError(f"{f} at {target} needs |y| <= {ymax} > {REPRESENT_WINDOW_LIMIT}")
    found = []
    for y in range(-ymax, ymax + 1):
        # a x^2 + (b y) x + (c y^2 - target) = 0
        bb = f.b * y
        disc = bb * bb - 4 * f.a * (f.c * y * y - target)
        if disc < 0:
            continue
        s = isqrt(disc)
        if s * s != disc:
            continue
        for sign in ((1,) if s == 0 else (1, -1)):
            num = -bb + sign * s
            if num % (2 * f.a) == 0:
                found.append((num // (2 * f.a), y))
    return sorted(found)


def two_squares(p: int) -> tuple[int, int]:
    """(c, d) with p = c^2 + d^2, c odd, d even, both positive, for a prime p."""
    if p % 4 != 1:
        raise NotOneModFourError(f"{p} is not 1 mod 4")
    if not is_prime(p):
        raise OutOfRangeError(f"{p} is not prime")
    root = sqrt_mod(p - 1, p)
    a, b = p, min(root, p - root)
    while b * b > p:
        a, b = b, a % b
    c, d = b, isqrt(p - b * b)
    if c % 2 == 0:
        c, d = d, c
    return c, d


def class_key(f: QuadForm) -> QuadForm:
    """One reduced form standing for f's class together with its inverse,
    which represent the same numbers: the reduced form g of f, with b made
    negative unless g is its own inverse (b = 0, b = a or a = c)."""
    g = reduce(f)
    if g.b in (0, g.a) or g.a == g.c:
        return g
    return QuadForm(g.a, -abs(g.b), g.c)


@dataclass(frozen=True)
class ClassMatch:
    index: int
    representations: tuple[tuple[int, int], ...]


def classify_by_class(p: int, D: int, targets: Sequence[QuadForm]) -> ClassMatch:
    """Index of the first target in the class representing the odd prime p,
    with the representations of p by that target.

    For b = D (mod 2) with b^2 = D (mod 4p), the form [p, b, (b^2 - D)/4p]
    has discriminant D and represents p, so its class, up to inversion, is
    the only one that does (Cox, Primes of the Form x^2 + ny^2, Lemma 2.5
    and Thm 2.8).  The class keys of the targets are computed once per
    tuple of targets.  Raises NoneRepresentsError when D is not a square
    mod p or no target is in that class.
    """
    if p < 3 or p % 2 == 0 or not is_prime(p):
        raise OutOfRangeError(f"p must be an odd prime, got {p}")
    for f in targets:
        if f.disc != D:
            raise InvalidDiscriminantError(f"{f} has discriminant {f.disc}, not {D}")
    r = sqrt_mod(D % p, p)
    if r is None:
        raise NoneRepresentsError(f"{D} is not a square mod {p}, so no form of it represents {p}")
    b = r if (r - D) % 2 == 0 else p - r
    key = class_key(QuadForm(p, b, (b * b - D) // (4 * p)))
    index = _first_of_class(tuple(targets)).get(key)
    if index is None:
        raise NoneRepresentsError(f"no target class of discriminant {D} represents {p}")
    return ClassMatch(index, tuple(represent(targets[index], p)))


@lru_cache(maxsize=64)
def _first_of_class(targets: tuple[QuadForm, ...]) -> dict[QuadForm, int]:
    """class_key -> index of the first target in that class."""
    first: dict[QuadForm, int] = {}
    for index, f in enumerate(targets):
        first.setdefault(class_key(f), index)
    return first
