"""Integral binary quadratic forms of negative discriminant.

[a, b, c] stands for a x^2 + b x y + c y^2.  Provides reduction to the
canonical representative, tracking the matrix of SL2(Z) that gets there,
enumeration of the primitive reduced forms of a discriminant, the
two-squares decomposition of p = 1 (mod 4), and classification of a prime
and its representations, both by reduction.  With b^2 = D (mod 4p),
h = [p, b, (b^2 - D)/4p] represents p at (1, 0), so its reduced class is
the one class of discriminant D, up to inversion, that represents p (Cox,
Primes of the Form x^2 + ny^2, Lemma 2.5 and Thm 2.8).  When h and a form
f reduce to the same form g, the two matrices carry (1, 0) over to a
representation of p by f, and the automorphs of g give the rest, so no
window of y is scanned.  The root b and the reductions of h for b and -b
are shared by represent and classify_by_class through one cache per prime.
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


def _reduce(a: int, b: int, c: int) -> tuple[int, int, int, tuple[int, int, int, int]]:
    """(a', b', c', M): the reduced form [a', b', c'] = [a, b, c]·M and the
    matrix M = ((m11, m12), (m21, m22)) of SL2(Z), as (m11, m12, m21, m22),
    that takes [a, b, c] there: ([a, b, c]·M)(x, y) = [a, b, c](M (x, y)).
    A translation by k multiplies M by ((1, k), (0, 1)), a swap by
    ((0, -1), (1, 0))."""
    m11, m12, m21, m22 = 1, 0, 0, 1
    while True:
        # translate b into (-a, a]
        if not -a < b <= a:
            k = (a - b) // (2 * a)
            c = a * k * k + b * k + c
            b = b + 2 * a * k
            m12 += m11 * k
            m22 += m21 * k
        if a > c or (a == c and b < 0):
            a, b, c = c, -b, a
            m11, m12, m21, m22 = m12, -m11, m22, -m21
            continue
        return a, b, c, (m11, m12, m21, m22)


def reduce(f: QuadForm) -> QuadForm:
    """Canonical reduced form of f's class, by alternating translation
    [a,b,c] -> [a, b+2ak, a k^2 + b k + c] and swap [a,b,c] -> [c,-b,a]."""
    _check_definite(f)
    a, b, c, _ = _reduce(f.a, f.b, f.c)
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


# automorphs M (f·M = f) of the two reduced forms that have more than +-1:
# [1,0,1] of D = -4 and [1,1,1] of D = -3
_PLUS_MINUS = ((1, 0, 0, 1), (-1, 0, 0, -1))
_AUTOMORPHS = {
    (1, 0, 1): _PLUS_MINUS + ((0, -1, 1, 0), (0, 1, -1, 0)),
    (1, 1, 1): _PLUS_MINUS + ((0, -1, 1, 1), (0, 1, -1, -1), (-1, -1, 1, 0), (1, 1, -1, 0)),
}

# the reduction of each form represent is asked about, kept across primes
_reduced = lru_cache(maxsize=64)(_reduce)


@lru_cache(maxsize=16)
def _classes_at(p: int, D: int) -> tuple[tuple[int, int, int, tuple[int, int, int, int]], ...]:
    """The reductions, with their matrices, of [p, b, (b^2 - D)/4p] for the
    roots b of b^2 = D (mod 4p): b and -b mod 2p, one root when p | D, none
    when D is no square mod p.  Each of these forms takes the value p at
    (1, 0).  Refuses a p that is not an odd prime.  Shared by represent and
    classify_by_class; 16 entries hold the six discriminants that the
    registry's form tables use at one prime."""
    if p < 3 or p % 2 == 0 or not is_prime(p):
        raise OutOfRangeError(f"p must be an odd prime, got {p}")
    if D >= 0 or D % 4 > 1:
        raise InvalidDiscriminantError(f"{D} is not a negative discriminant")
    r = sqrt_mod(D % p, p)
    if r is None:
        return ()
    b = r if (r - D) % 2 == 0 else p - r
    c = (b * b - D) // (4 * p)
    h = _reduce(p, b, c)
    return (h, _reduce(p, -b, c)) if r else (h,)


def represent(f: QuadForm, p: int) -> list[tuple[int, int]]:
    """All integer pairs (x, y) with f(x, y) = p, sorted, for an odd prime p.

    By reduction, in O(log p) steps: let f·δ = g be reduced.  Each form
    h = [p, b, (b^2 - D)/4p] of _classes_at with h·γ = g gives g = f·δ,
    h = f·δγ^-1 and so the representation δγ^-1 (1, 0), and δαγ^-1 (1, 0)
    for every automorph α of g (+-1, or 4 and 6 of them at D = -4 and -3).
    These are all: gcd(x, y)^2 divides p, so every representation is
    proper, and the proper ones with one b are an orbit of the automorphs
    (Cox, Primes of the Form x^2 + ny^2, §2; Cohen, A Course in
    Computational Algebraic Number Theory, Alg. 1.5.2-1.5.3).  A form of
    content p takes the value p where f/p takes 1; one of any other content
    above 1 never does.
    """
    _check_definite(f)
    classes = _classes_at(p, f.disc)
    content = gcd(gcd(f.a, f.b), f.c)
    if content == 1:
        a, b, c, delta = _reduced(f.a, f.b, f.c)
        # gamma^-1 (1, 0) = (m22, -m21) for gamma = (m11, m12, m21, m22)
        firsts = [(m[3], -m[2]) for a1, b1, c1, m in classes if (a1, b1, c1) == (a, b, c)]
    elif content == p:
        # the reduced form g of f/p takes the value 1 only if its a is 1, and
        # then at (1, 0) and its images by the automorphs of g
        a, b, c, delta = _reduced(f.a // p, f.b // p, f.c // p)
        firsts = [(1, 0)] if a == 1 else []
    else:
        return []
    d11, d12, d21, d22 = delta
    found = []
    for x, y in firsts:
        for u11, u12, u21, u22 in _AUTOMORPHS.get((a, b, c), _PLUS_MINUS):
            u, v = u11 * x + u12 * y, u21 * x + u22 * y
            found.append((d11 * u + d12 * v, d21 * u + d22 * v))
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


def _key(a: int, b: int, c: int) -> tuple[int, int, int]:
    """class_key of the reduced form [a, b, c], as a tuple."""
    if b in (0, a) or a == c:
        return a, b, c
    return a, -abs(b), c


def class_key(f: QuadForm) -> QuadForm:
    """One reduced form standing for f's class together with its inverse,
    which represent the same numbers: the reduced form g of f, with b made
    negative unless g is its own inverse (b = 0, b = a or a = c)."""
    _check_definite(f)
    a, b, c, _ = _reduce(f.a, f.b, f.c)
    return QuadForm(*_key(a, b, c))


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
    tuple of targets, and the reduction of that form is shared with
    represent.  Raises NoneRepresentsError when D is not a square mod p or
    no target is in that class.
    """
    classes = _classes_at(p, D)
    first = _first_of_class(tuple(targets), D)
    if not classes:
        raise NoneRepresentsError(f"{D} is not a square mod {p}, so no form of it represents {p}")
    index = first.get(_key(*classes[0][:3]))
    if index is None:
        raise NoneRepresentsError(f"no target class of discriminant {D} represents {p}")
    return ClassMatch(index, tuple(represent(targets[index], p)))


@lru_cache(maxsize=64)
def _first_of_class(targets: tuple[QuadForm, ...], D: int) -> dict[tuple[int, int, int], int]:
    """class_key, as a tuple, -> index of the first target in that class;
    refuses a target whose discriminant is not D."""
    first: dict[tuple[int, int, int], int] = {}
    for index, f in enumerate(targets):
        if f.disc != D:
            raise InvalidDiscriminantError(f"{f} has discriminant {f.disc}, not {D}")
        g = class_key(f)
        first.setdefault((g.a, g.b, g.c), index)
    return first
