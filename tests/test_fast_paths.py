"""Fast paths against the brute force they replaced, kept here as oracles.

`cubic_roots` finds roots through gcd(f, x^p - x); the oracle scans every
residue.  `intro-zps` takes the sum of C(3k,k) 2^k over k < p from a cubic
recurrence, with no tables; one oracle reads all p - 1 terms through base-p
digits, the other sums on the tables the two diagonal runs that Lucas's
theorem leaves nonzero.
`sum_diag_pow` reads the diagonal off the factorial tables; the oracle
reads each term through `binom`.  `lucas_sum` takes the sums of C(4k, 2k)
and C(3k, k) from one Lucas pair, and `ring_sum` those of C(2bk, bk) and
C(6k, 2k) by powering in a quotient ring; the oracle of both is a Horner
pass over the table diagonal, the other path of `Ctx.sum_binom`.  The
shift lemmas read the factorial tables directly, cancelling a unit
factorial from both sides and multiplying both by the unit s^k; the oracle
is the loop that computed both binomials in full against s^-k, and a
corrupted table entry must make them fail.
`ModTables` takes 1/k! from (p-1-k)! by Wilson's reflection; the oracle is
the two-loop build, k! by a forward loop and 1/k! by a backward loop down
from 1/(p-1)!.
`represent` carries (1, 0) from [p, b, (b^2 - D)/4p] to the form through
the matrices of their reductions and the automorphs; the oracle scans every
y in the window |y| <= sqrt(4ap/|D|).  `classify_by_class` reduces the one
form [p, b, (b^2 - D)/4p]; the oracle runs that scan on every class of the
target list.  `combsum._lucas_number`
doubles the index; the oracle steps L_{k+1} = L_k + L_{k-1} one k at a time.
`uv_mod` runs the (U_m, U_{m+1}) ladder; the oracle is the (U_m, V_m)
ladder that halves mod p and carries Q^m.  `jacobi` strips all factors 2
of the top at once; the oracle strips them one at a time.  `thm-3.10`
decides a Pass by deflating its cubic at S; the oracle compares S with
every root `cubic_roots` finds.  The sampler's draws call `getrandbits`
directly; the oracle is `Random.randrange` and `Random.choice`.  The
quartic symbols keep one prime's square root of -1; the oracle takes it
afresh from `sqrt_mod` at every call.  At p = 3 (mod 4) they raise alpha to
(p+1)/4 and apply Frobenius; the oracle raises it to (p^2-1)/4.  `lem-2.4`
walks U_{n+1} = U_n - U_{n-1} once; the oracle runs one `uv` ladder per n.
"""

import inspect
import math
import random
from itertools import chain

import pytest
from hypothesis import assume, given, strategies as st

from congrkit import binomsum, combsum, cyclotomic
from congrkit.binomsum import (
    LUCAS_SCALES,
    TABLE_PRIME_LIMIT,
    ModTables,
    binom_shift_lemma_check,
    lucas_sum,
    mod_tables,
    ring_sum,
)
from congrkit.cyclotomic import GaussianInt, UnityRoot4, quartic_character, quartic_symbol
from congrkit.errors import (
    EvenModulusError,
    NoneRepresentsError,
    OutOfRangeError,
    ZeroInverseError,
)
from congrkit.lucas import uv_mod
from congrkit.modarith import inv_mod, is_prime, jacobi, sieve_primes, sqrt_mod
from congrkit.qform import QuadForm, class_group, class_key, classify_by_class, reduce, represent
from congrkit.registry import Ctx, Outcome, cubic_roots
from congrkit.registry import engine, statements_binom3 as b3, statements_binom4 as b4
from congrkit.registry.engine import FormTable
from congrkit.registry.statements_binom3 import _sum_3k_full, _zps_sum

PRIMES_5_2000 = [p for p in sieve_primes(2000) if p >= 5]
BIG_PRIMES = [q for q in range(100_000, 100_170) if is_prime(q)]
SHIFT_LEMMAS = [("L2.2", 4), ("L2.3", 2), ("L3.1", 3)]  # (name, a)
# y window cap of scan_represent; a reduced form needs <= sqrt(4p/3) < 1.2e6 at any p <= 10^12
REPRESENT_WINDOW_LIMIT = 10**7


def scan_roots(c3, c1, c0, p):
    """All residues x with c3 x^3 + c1 x + c0 = 0 mod p, by full scan."""
    if p <= 3:
        raise OutOfRangeError(f"need p > 3, got {p}")
    c3 %= p
    c1 %= p
    c0 %= p
    return {x for x in range(p) if (((c3 * x % p) * x + c1) * x + c0) % p == 0}


def scan_represent(f, p):
    """All (x, y) with f(x, y) = p, sorted: any solution has
    |y| <= sqrt(4ap/|D|), so scanning y in that window and solving the
    quadratic in x finds everything.  A wider window than
    REPRESENT_WINDOW_LIMIT is refused."""
    ymax = math.isqrt(4 * f.a * p // -f.disc) + 1
    if ymax > REPRESENT_WINDOW_LIMIT:
        raise OutOfRangeError(f"{f} at {p} needs |y| <= {ymax} > {REPRESENT_WINDOW_LIMIT}")
    found = []
    for y in range(-ymax, ymax + 1):
        # a x^2 + (b y) x + (c y^2 - p) = 0
        bb = f.b * y
        disc = bb * bb - 4 * f.a * (f.c * y * y - p)
        if disc < 0:
            continue
        s = math.isqrt(disc)
        if s * s != disc:
            continue
        for sign in ((1,) if s == 0 else (1, -1)):
            num = -bb + sign * s
            if num % (2 * f.a) == 0:
                found.append((num // (2 * f.a), y))
    return sorted(found)


def zps_loop(ctx):
    """sum of C(3k,k) 2^k for k = 1..p-1, one binom_general call per term."""
    p = ctx.p
    s = 0
    pow2 = 1
    for k in range(1, p):
        pow2 = pow2 * 2 % p
        s = (s + pow2 * ctx.tables.binom_general(3 * k, k)) % p
    return s


def zps_two_runs(ctx):
    """sum of C(3k,k) 2^k for k = 1..p-1 as two diagonal runs: by Lucas,
    C(3k,k) = C(3k-qp, k) with q = [3k/p], which is 0 unless q = 0
    (k <= [p/3]) or q = 1 and k >= p/2; the second run, p/2 < k < 2p/3,
    reads the tables."""
    p = ctx.p
    binom = ctx.tables.binom
    s = ctx.sum_binom(3, 1, 2) - 1
    lo = (p + 1) // 2
    pow2 = pow(2, lo, p)
    for k in range(lo, (2 * p - 1) // 3 + 1):
        s += pow2 * binom(3 * k - p, k)
        pow2 = pow2 * 2 % p
    return s % p


def horner(coeffs, m, p):
    """sum of coeffs[k] m^k mod p, one scalar Horner step per term."""
    s = 0
    for c in reversed(coeffs):
        s = (s * m + c) % p
    return s


def two_loop_tables(p):
    """k! and 1/k! mod p for k < p: a forward and a backward loop."""
    fact = [1] * p
    for i in range(1, p):
        fact[i] = fact[i - 1] * i % p
    inv_fact = [1] * p
    inv_fact[p - 1] = inv_mod(fact[p - 1], p)
    for i in range(p - 1, 0, -1):
        inv_fact[i - 1] = inv_fact[i] * i % p
    return fact, inv_fact


def shift_lemma_loop(which, p, t):
    """binom_shift_lemma_check on the tables t, both binomials in full at
    every k: six modular products a step, no factor cancelled."""
    a, b, s = binomsum._SHIFT_LEMMAS[which]
    n0 = p // a
    fact, inv_fact = t.fact, t.inv_fact
    c = a - b
    inv_s = inv_mod(s, p)
    sk = 1
    if which == "L2.3":
        top = fact[n0]
        for k in range(1, n0 + 1):
            sk = sk * inv_s % p
            if (top * inv_fact[k] % p * inv_fact[n0 - k] % p
                    != fact[a * k] * inv_fact[b * k] % p * inv_fact[c * k] % p * sk % p):
                return False
        return True
    for k in range(1, n0 + 1):
        sk = sk * inv_s % p
        if (fact[n0 + k] * inv_fact[n0 - k] % p * inv_fact[2 * k] % p
                != fact[a * k] * inv_fact[b * k] % p * inv_fact[c * k] % p * sk % p):
            return False
    return True


def two_reduction_key(f):
    """The reduced form of f or of its inverse [a, -b, c], whichever is less."""
    return min(reduce(f), reduce(f.opposite()), key=lambda g: (g.a, g.b, g.c))


def search_classes(p, D, targets):
    """(index, representations) of the one class among targets that
    represents p, found by scanning each class; None when no class does."""
    buckets = {}
    for i, f in enumerate(targets):
        assert f.disc == D, f
        buckets.setdefault(two_reduction_key(f), []).append(i)
    hits = [(idxs[0], reps) for idxs in buckets.values()
            if (reps := scan_represent(targets[idxs[0]], p))]
    assert len(hits) <= 1, (p, D, hits)
    return (hits[0][0], tuple(hits[0][1])) if hits else None


def form_tables():
    """The nine FormTables of the registry."""
    tables = [t for mod in (b3, b4) for t in vars(mod).values() if isinstance(t, FormTable)]
    tables += [inst["table"] for _name, inst in b3._L33_INSTANCES]
    assert len(tables) == 9
    return tables


# every (a, b) whose diagonal the registry sums
REGISTRY_DIAGONALS = [(3, 1), (4, 2), (6, 2), (6, 3), (8, 4), (10, 5), (12, 6), (20, 10), (24, 12)]
# the diagonals ring_sum takes in the registry, C(2k, k), and C(4k, 2k),
# which Ctx.sum_binom sends to lucas_sum
RING_DIAGONALS = [(2, 1), (4, 2), (6, 2), (6, 3), (8, 4), (10, 5), (12, 6), (20, 10), (24, 12)]


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
    assert _zps_sum(Ctx(p)) == zps_two_runs(Ctx(p)) == zps_loop(Ctx(p)) == exact


@pytest.mark.parametrize("p", [999_983, 1_999_993])
def test_zps_sum_matches_the_two_runs_up_to_the_table_limit(p):
    try:
        assert _zps_sum(Ctx(p)) == zps_two_runs(Ctx(p))
    finally:
        mod_tables.cache_clear()  # the tables at 1999993 hold about 128 MB


def test_full_3k_sums_match_the_exact_binomials():
    # every unit x = 1..11 at every prime 5 <= p < 400; the recurrence
    # needs 1/x and 1/3
    combs = [math.comb(3 * k, k) for k in range(400)]
    for p in sieve_primes(400)[2:]:
        row = [c % p for c in combs[:p]]
        for x in range(1, 12):
            if x % p:
                assert _sum_3k_full(x, p) == horner(row, x, p), (x, p)


@pytest.mark.parametrize("primes", [sieve_primes(2000)[1:], [100_003]],
                         ids=["odd-primes-to-2000", "100003"])
def test_one_pass_tables_match_the_two_loops(primes):
    for p in primes:
        t = ModTables(p)
        assert (t.fact, t.inv_fact) == two_loop_tables(p), p
        assert all(f * g % p == 1 for f, g in zip(t.fact, t.inv_fact)), p


def test_sum_diag_pow_matches_horner_on_the_registry_diagonals():
    rng = random.Random(7)
    for p in sieve_primes(2000)[1:]:
        t = mod_tables(p)
        ms = [0, 1, p - 1] + [rng.randrange(p) for _ in range(3)]
        for a, b in REGISTRY_DIAGONALS:
            if p == a:  # C(3, 1) at p = 3 is outside the tables
                continue
            diag = [t.binom(a * k, b * k) for k in range(p // a + 1)]
            for upper in (0, p // a, max(p // a - 3, 0)):
                for m in ms:
                    assert t.sum_diag_pow(a, b, m, upper) == horner(diag[:upper + 1], m, p), \
                        (p, a, b, m, upper)


@pytest.fixture(scope="module")
def largest_tables():
    """The tables of the largest prime they admit, built once for the sum
    oracles below and dropped with this module; mod_tables would keep them
    for the rest of the session."""
    return ModTables(next(q for q in range(TABLE_PRIME_LIMIT, 0, -1) if is_prime(q)))


def test_lucas_sums_match_the_tables(largest_tables):
    assert sorted(LUCAS_SCALES) == [(3, 1), (4, 2)]
    rng = random.Random(16)
    assert len(BIG_PRIMES) == 12
    for t in chain(map(ModTables, sieve_primes(3000)[2:] + BIG_PRIMES), [largest_tables]):
        p = t.p
        ms = (0, 1, p - 1, rng.randrange(p), rng.randrange(p))
        for a, b in LUCAS_SCALES:
            diag = t.diag(a, b, p // a)
            for m in ms:
                assert lucas_sum(a, b, m, p) == horner(diag, m, p), (p, a, b, m)


def test_ring_sums_match_the_tables(largest_tables):
    # from p = 3, where [p/a] = 0 or h = (p-1)/2 < b for most diagonals
    rng = random.Random(21)
    for t in chain(map(ModTables, sieve_primes(3000)[1:] + [100_003, 100_019]), [largest_tables]):
        p = t.p
        ms = (0, 1, p - 1, rng.randrange(1, p))
        for a, b in RING_DIAGONALS:
            diag = t.diag(a, b, p // a)
            for m in ms:
                assert ring_sum(a, b, m, p) == horner(diag, m, p), (p, a, b, m)


def test_ring_sums_by_the_term_walk_match_the_tables(largest_tables):
    # b^2 > h walks the terms: either side of b = isqrt(h), and at b = h,
    # the last b with a term past k = 0
    rng = random.Random(22)
    for t in chain(map(ModTables, sieve_primes(3000)[1::7] + [100_003]), [largest_tables]):
        p = t.p
        h = (p - 1) // 2
        for b in sorted({math.isqrt(h), math.isqrt(h) + 1, h}):
            m = rng.randrange(1, p)
            assert ring_sum(2 * b, b, m, p) == t.sum_diag_pow(2 * b, b, m, p // (2 * b)), (p, b)


@pytest.mark.parametrize("a, b, p", [
    (3, 2, 101),  # neither a = 2b nor (6, 2)
    (0, 0, 101),
    (24, 12, 1_000_000_007),  # 24 (p-1)^2 >= 2^64: past the 64-bit slots
])
def test_ring_sum_refuses_what_it_cannot_take(a, b, p):
    with pytest.raises(OutOfRangeError):
        ring_sum(a, b, 1, p)


@pytest.mark.parametrize("a, b, den, upper, error", [
    (3, 4, 1, 10, OutOfRangeError),
    (3, -1, 1, 10, OutOfRangeError),
    (3, 1, 1, 34, OutOfRangeError),  # 3 * 34 reaches 101
    (3, 1, 202, 10, ZeroInverseError),
])
def test_prefix_sums_refuse_what_the_tables_refuse(a, b, den, upper, error):
    # the truncated sums of Ctx.sum_binom, at an explicit upper limit
    with pytest.raises(error):
        Ctx(101).sum_binom(a, b, 1, den, upper)


def test_both_sum_paths_share_one_diagonal_check(monkeypatch):
    # the Lucas path, taken at the default upper limit, refuses what the
    # tables, read through an explicit one, refuse: 3 * [3/3] reaching
    # p = 3, and p | den
    for p, a, b, den, error in ((3, 3, 1, 1, OutOfRangeError), (101, 4, 2, 202, ZeroInverseError),
                                (101, 3, 1, -101, ZeroInverseError),
                                (101, 8, 4, 202, ZeroInverseError),
                                (101, 6, 2, -101, ZeroInverseError)):
        ctx = Ctx(p)
        with pytest.raises(error):
            ctx.sum_binom(a, b, 1, den, p // a)
        with pytest.raises(error):
            ctx.sum_binom(a, b, 1, den)

    class Refused(Exception):
        pass

    def refuse(a, b, upper, p):
        raise Refused

    monkeypatch.setattr(binomsum, "check_diag", refuse)
    with pytest.raises(Refused):
        ModTables(101).sum_diag_pow(3, 1, 1, 10)
    with pytest.raises(Refused):
        lucas_sum(3, 1, 1, 101)
    for a, b in ((8, 4), (6, 2)):
        with pytest.raises(Refused):
            ring_sum(a, b, 1, 101)


@pytest.mark.parametrize("scales, error", [
    ("{(4, 2): -63, (3, 1): -27}", r"C\(4k, 2k\) is not \(-63\)\^k"),  # a wrong scale
    ("{(4, 2): -64, (3, 1): -27, (8, 4): -4096}", r"C\(8k, 4k\)"),  # no such reduction
])
def test_a_lucas_scale_that_fails_its_proof_fails_at_import(scales, error):
    source = inspect.getsource(binomsum)
    line = "\nLUCAS_SCALES = {(4, 2): -64, (3, 1): -27}\n"
    assert line in source
    source = source.replace(line, f"\nLUCAS_SCALES = {scales}\n")
    with pytest.raises(ImportError, match=error):
        exec(compile(source, binomsum.__file__, "exec"),
             {"__name__": "congrkit.binomsum", "__package__": "congrkit"})


@pytest.mark.parametrize("scale", [4, -2, -5])
def test_a_central_scale_that_fails_its_proof_fails_at_import(scale):
    source = inspect.getsource(binomsum)
    line = "\nCENTRAL_SCALE = -4\n"
    assert line in source
    source = source.replace(line, f"\nCENTRAL_SCALE = {scale}\n")
    with pytest.raises(ImportError, match=rf"C\(2j, j\) is not \({scale}\)\^j"):
        exec(compile(source, binomsum.__file__, "exec"),
             {"__name__": "congrkit.binomsum", "__package__": "congrkit"})


@pytest.mark.parametrize("which, a", SHIFT_LEMMAS)
def test_shift_lemmas_fail_on_a_corrupted_table(monkeypatch, which, a):
    # the lemma reads inv_fact[n0 - k] for k = 1..n0, so each of these
    # entries is read at some k; only at k = n0/2 in L2.3 do both sides read
    # inv_fact[k] twice, so that a corrupted entry cancels there
    p = 101
    assert binom_shift_lemma_check(which, p)
    for i in range(p // a):
        if which == "L2.3" and 2 * i == p // a:
            continue
        t = ModTables(p)
        t.inv_fact[i] = (t.inv_fact[i] + 1) % p
        monkeypatch.setattr(binomsum, "mod_tables", lambda q: t)
        assert not binom_shift_lemma_check(which, p), i


@pytest.mark.parametrize("shift", [-1, 1])
@pytest.mark.parametrize("which, a", SHIFT_LEMMAS)
def test_shift_lemma_check_refuses_a_wrong_scale(monkeypatch, which, a, shift):
    # at k = 1 the sides differ by s/(s + shift), a unit unless p | s + shift,
    # where both refuse the scale; from p = 5 on, n0 >= 1 for every lemma
    b, s = binomsum._SHIFT_LEMMAS[which][1:]
    monkeypatch.setitem(binomsum._SHIFT_LEMMAS, which, (a, b, s + shift))
    for p in sieve_primes(3000)[2:] + BIG_PRIMES:
        if (s + shift) % p == 0:
            with pytest.raises(ZeroInverseError):
                binom_shift_lemma_check(which, p)
            with pytest.raises(ZeroInverseError):
                shift_lemma_loop(which, p, mod_tables(p))
        else:
            assert not binom_shift_lemma_check(which, p), p
            assert not shift_lemma_loop(which, p, mod_tables(p)), p


@pytest.mark.parametrize("p", [101, 103])
@pytest.mark.parametrize("which, a", SHIFT_LEMMAS)
def test_shift_lemmas_agree_with_the_loop_on_a_corrupted_fact(monkeypatch, which, a, p):
    # cancelling ((a-b)k)! drops reads of inv_fact only: every fact entry
    # the loop reads is still read, so each corruption gets the same verdict.
    # An entry read on both sides at one k, n0 + k = ak, cancels there and
    # is read nowhere else (L3.1 at p = 103: fact[51] at k = 17)
    n0 = p // a
    tops = {n0} if which == "L2.3" else set(range(n0 + 1, 2 * n0 + 1))
    read = tops | set(range(a, a * n0 + 1, a))
    both_sides = {n0 + k for k in range(1, n0 + 1) if which != "L2.3" and n0 + k == a * k}
    missed = set()
    for i in sorted(read):
        t = ModTables(p)
        t.fact[i] = (t.fact[i] + 1) % p
        monkeypatch.setattr(binomsum, "mod_tables", lambda q: t)
        got = binom_shift_lemma_check(which, p)
        assert got == shift_lemma_loop(which, p, t), i
        if got:
            missed.add(i)
    assert missed == both_sides


@pytest.mark.parametrize("p", [101, 103])
@pytest.mark.parametrize("which, a", SHIFT_LEMMAS)
def test_shift_lemmas_catch_every_inv_fact_corruption_the_loop_catches(monkeypatch, which, a, p):
    # the cancelled 1/((a-b)k)! sits on both sides of the loop at one k, so
    # a wrong value there, even 0, can only make the loop pass; every entry
    # the loop reads, off by one or zeroed, that fails it fails the check too
    n0 = p // a
    b = binomsum._SHIFT_LEMMAS[which][1]
    ks = range(1, n0 + 1)
    read = {n0 - k for k in ks} | {b * k for k in ks} | {(a - b) * k for k in ks}
    for i in sorted(read):
        for bad in ((lambda x: (x + 1) % p), (lambda x: 0)):
            t = ModTables(p)
            t.inv_fact[i] = bad(t.inv_fact[i])
            monkeypatch.setattr(binomsum, "mod_tables", lambda q: t)
            assert binom_shift_lemma_check(which, p) <= shift_lemma_loop(which, p, t), i


@pytest.mark.parametrize("p", [99_991, 100_003])
@pytest.mark.parametrize("which, a", SHIFT_LEMMAS)
def test_shift_lemmas_agree_with_the_loop_above_1e5(which, a, p):
    assert binom_shift_lemma_check(which, p) == shift_lemma_loop(which, p, mod_tables(p)) is True


def test_class_key_matches_the_two_reductions():
    # every form of the nine class groups, their inverses and the rows
    forms = {f for t in form_tables() for f in t.forms}
    for D in {t.disc for t in form_tables()}:
        forms.update(g for f in class_group(D) for g in (f, f.opposite()))
    assert len(forms) > 33
    for f in forms:
        assert class_key(f) == two_reduction_key(f), f


def test_classify_by_class_matches_the_class_search():
    pairs = 0
    for table in form_tables():
        for p in sieve_primes(10**4)[1:] + BIG_PRIMES:
            want = search_classes(p, table.disc, table.forms)
            if want is None:
                with pytest.raises(NoneRepresentsError):
                    classify_by_class(p, table.disc, table.forms)
            else:
                got = classify_by_class(p, table.disc, table.forms)
                assert (got.index, got.representations) == want, (table.disc, p)
            pairs += 1
    assert pairs == 9 * (1228 + 12)


def test_represent_matches_the_scan_on_the_class_groups():
    # every reduced form of the tables' discriminants and its inverse, which
    # is reduced or else translates to it
    forms = {g for D in {t.disc for t in form_tables()}
             for f in class_group(D) for g in (f, f.opposite())}
    assert len(forms) == 56
    primes = sieve_primes(10**4)[1:] + BIG_PRIMES
    hits = 0
    for f in forms:
        for p in primes:
            want = scan_represent(f, p)
            assert represent(f, p) == want, (f, p)
            hits += bool(want)
    assert hits > len(primes)


def sl2_moves():
    """A matrix of SL2(Z) as (p, q, r, s), a product of up to 6 moves
    x -> x + k y and (x, y) -> (-y, x)."""
    move = st.one_of(st.integers(-4, 4).map(lambda k: (1, k, 0, 1)), st.just((0, -1, 1, 0)))

    def product(ms):
        p, q, r, s = 1, 0, 0, 1
        for a, b, c, d in ms:
            p, q, r, s = p * a + q * c, p * b + q * d, r * a + s * c, r * b + s * d
        return p, q, r, s
    return st.lists(move, max_size=6).map(product)


def moved(f, m):
    """f·m, the form (x, y) -> f(p x + q y, r x + s y)."""
    p, q, r, s = m
    return QuadForm(f.value(p, r), 2 * f.a * p * q + f.b * (p * s + q * r) + 2 * f.c * r * s,
                    f.value(q, s))


SMALL_PRIMES = sieve_primes(400)[1:]


@st.composite
def forms_at_a_prime(draw):
    """(f, p): a positive definite form, moved off its reduced form, of one
    of several kinds, times a content 1, p or another number."""
    p = draw(st.sampled_from(SMALL_PRIMES))
    kind = draw(st.sampled_from(["represents p", "p | D", "D = -3", "D = -4", "any"]))
    if kind == "represents p":  # [p, b, c] takes p at (1, 0)
        b = draw(st.integers(-p, p))
        base = QuadForm(p, b, draw(st.integers(b * b // (4 * p) + 1, 3 * p)))
    elif kind == "p | D":  # b = 0 or p: p divides b^2 - 4pc
        b = draw(st.sampled_from([0, p, -p]))
        base = QuadForm(p, b, draw(st.integers(b * b // (4 * p) + 1, 3 * p)))
    elif kind == "D = -3":
        base = QuadForm(1, 1, 1)
    elif kind == "D = -4":
        base = QuadForm(1, 0, 1)
    else:
        base = QuadForm(draw(st.integers(1, 40)), draw(st.integers(-40, 40)),
                        draw(st.integers(1, 40)))
        assume(base.disc < 0)
    f = moved(base, draw(sl2_moves()))
    k = draw(st.sampled_from([1, 1, p, draw(st.integers(2, 6))]))
    return QuadForm(k * f.a, k * f.b, k * f.c), p


@given(forms_at_a_prime())
def test_represent_matches_the_scan_on_random_forms(fp):
    f, p = fp
    assert represent(f, p) == scan_represent(f, p)


def test_represent_matches_the_scan_at_a_large_prime():
    # the scan walks about 1.15e6 values of y here
    p = 999_999_999_961
    want = scan_represent(QuadForm(1, 1, 1), p)
    assert len(want) == 12
    assert represent(QuadForm(1, 1, 1), p) == want


@pytest.mark.parametrize("p", [-3, 0, 1, 2, 9, 15, 561])
def test_classify_by_class_refuses_a_p_that_is_not_an_odd_prime(p):
    with pytest.raises(OutOfRangeError):
        classify_by_class(p, -207, [QuadForm(1, 1, 52)])


def test_lucas_numbers_by_doubling_match_the_loop():
    a, b = 2, 1  # L_n, L_{n+1}
    for n in range(2101):
        assert combsum._lucas_number(n) == a, n
        a, b = b, a + b
    with pytest.raises(OutOfRangeError):
        combsum._lucas_number(-1)


def uv_halving_ladder(P, Q, n, p):
    """(U_n, V_n) mod an odd p by the (U_m, V_m) ladder: V_{2m} needs Q^m,
    and a set bit halves mod p."""
    if n == 0:
        return 0, 2 % p
    P %= p
    Q %= p
    inv2 = (p + 1) // 2
    disc = (P * P - 4 * Q) % p
    u, v, qn = 1, P, Q
    for bit in bin(n)[3:]:
        u, v, qn = u * v % p, (v * v - 2 * qn) % p, qn * qn % p
        if bit == "1":
            u, v, qn = (P * u + v) * inv2 % p, (P * v + disc * u) * inv2 % p, qn * Q % p
    return u, v


def test_uv_mod_matches_the_halving_ladder_on_every_small_pair():
    for p in (3, 5, 7, 11, 13):
        for P in range(p):
            for Q in range(p):
                for n in range(65):
                    assert uv_mod(P, Q, n, p) == uv_halving_ladder(P, Q, n, p), (P, Q, n, p)


@pytest.mark.parametrize("p", [1999, 100_003, 1_999_993])
def test_uv_mod_matches_the_halving_ladder_on_seeded_triples(p):
    rng = random.Random(p)
    inv4 = inv_mod(4, p)
    for _ in range(300):
        P, n = rng.randrange(-p, 2 * p), rng.randrange(3 * p)
        # any Q, a zero discriminant P^2 = 4Q, and Q = 0
        for Q in (rng.randrange(-p, 2 * p), P * P * inv4, 0):
            assert uv_mod(P, Q, n, p) == uv_halving_ladder(P, Q, n, p), (P, Q, n)


def jacobi_loop(a, n):
    """(a|n) for odd positive n, stripping one factor 2 of a at a time."""
    if n <= 0 or n % 2 == 0:
        raise EvenModulusError(f"Jacobi symbol needs odd positive bottom, got {n}")
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def test_jacobi_matches_the_loop_on_every_small_pair():
    for n in range(1, 600, 2):
        for a in range(-2 * n, 2 * n + 1):
            assert jacobi(a, n) == jacobi_loop(a, n), (a, n)


def test_jacobi_matches_the_loop_on_seeded_60_bit_pairs():
    rng = random.Random(60)
    for _ in range(3000):
        n = rng.getrandbits(60) | 1
        a = rng.getrandbits(60) * rng.choice((1, -1)) << rng.randrange(4)
        assert jacobi(a, n) == jacobi_loop(a, n), (a, n)
    for a in (-5, -1, 0, 1, 2, 2**61):
        assert jacobi(a, 1) == 1


@pytest.mark.parametrize("n", [-7, -1, 0, 2, 10, 2**61])
def test_jacobi_refuses_an_even_or_non_positive_bottom(n):
    with pytest.raises(EvenModulusError):
        jacobi(3, n)
    with pytest.raises(EvenModulusError):
        jacobi_loop(3, n)


def thm_3_10_by_roots(ctx, params):
    """thm-3.10's check with every root of (27a - 4)x^3 + 3x + 1 found."""
    p = ctx.p
    s = ctx.sum_binom(3, 1, params["a"])
    roots = cubic_roots((27 * params["a"] - 4) % p, 3, 1, p)
    return Outcome(roots == {s}, s, b3._THM_3_10_ROW, sorted(roots))


class WrongSum(Ctx):
    """A Ctx whose sums are one too large, to fail thm-3.10 at every a."""

    __slots__ = ()

    def sum_binom(self, *args, **kwargs):
        return (super().sum_binom(*args, **kwargs) + 1) % self.p


def test_thm_3_10_matches_the_root_check_at_every_a():
    for p in sieve_primes(400)[2:]:
        ctx, wrong = Ctx(p), WrongSum(p)
        for a in range(p):
            params = {"a": a}
            assert b3._check_thm_3_10(ctx, params) == thm_3_10_by_roots(ctx, params), (p, a)
            assert b3._check_thm_3_10(wrong, params) == thm_3_10_by_roots(wrong, params), (p, a)


@pytest.mark.parametrize("p", [100_003, 1_999_993])
def test_thm_3_10_matches_the_root_check_at_seeded_a(p):
    rng = random.Random(p)
    ctx, wrong = Ctx(p), WrongSum(p)
    passes = 0
    for _ in range(300):
        params = {"a": rng.randrange(p)}
        got = b3._check_thm_3_10(ctx, params)
        assert got == thm_3_10_by_roots(ctx, params), params
        assert b3._check_thm_3_10(wrong, params) == thm_3_10_by_roots(wrong, params), params
        passes += got.ok
    assert 0 < passes < 300  # both the deflation and cubic_roots are reached


@pytest.mark.parametrize("p", [3, 5, 7, 1999, 100_003])
def test_draws_take_the_stream_of_randrange_and_choice(p):
    pairs = [
        (engine.unit, lambda rng: rng.randrange(1, p)),
        (engine.unit_not_one, lambda rng: rng.randrange(2, p)),
        (engine.small, lambda rng: rng.randrange(1, 61)),
        (engine.small_signed, lambda rng: rng.choice((1, -1)) * rng.randrange(1, 61)),
    ]
    for draw, oracle in pairs:
        for seed in range(20):
            rng, ref = random.Random(f"{seed}|{p}"), random.Random(f"{seed}|{p}")
            assert [draw(rng, p) for _ in range(3000)] == [oracle(ref) for _ in range(3000)]


def quartic_exp_inert_by_the_full_power(alpha, p):
    """The exponent e of alpha^((p^2-1)/4) = i^e mod the prime p = 3 (mod 4),
    raised in full."""
    r = cyclotomic._quad_pow(alpha.re, alpha.im, (p * p - 1) // 4, p, -1, 0)
    return {(1, 0): 0, (0, 1): 1, (p - 1, 0): 2, (0, p - 1): 3}[r]


def test_quartic_exponent_by_frobenius_matches_the_full_power():
    alphas = [GaussianInt(x, y) for x in range(-12, 13) for y in range(-12, 13)]
    for p in sieve_primes(3000):
        if p % 4 == 3:
            for alpha in alphas:
                if alpha.norm % p:
                    assert (cyclotomic._quartic_exp_inert(alpha, p)
                            == quartic_exp_inert_by_the_full_power(alpha, p)), (alpha, p)


def quartic_pair_uncached(alpha, p):
    """(quartic_symbol, quartic_character) of alpha at p, with the square
    root of -1 taken afresh and the inert power raised in full."""
    if p % 4 == 3:
        e = quartic_exp_inert_by_the_full_power(alpha, p)
        return UnityRoot4(e), UnityRoot4(e)
    u = sqrt_mod(p - 1, p)
    split = cyclotomic._quartic_exp_split
    return (UnityRoot4((split(alpha, p, u) + split(alpha, p, p - u)) % 4),
            UnityRoot4(split(alpha, p, min(u, p - u))))


def test_quartic_symbols_match_their_uncached_values():
    primes = sieve_primes(300)[1:]
    random.Random(4).shuffle(primes)  # so that each prime evicts the last one's root
    alphas = [GaussianInt(x, y) for x in range(-12, 13) for y in range(-12, 13)]
    for p in primes:
        for alpha in alphas:
            if alpha.norm % p:
                got = quartic_symbol(alpha, p), quartic_character(alpha, p)
                assert got == quartic_pair_uncached(alpha, p), (alpha, p)


def lem_2_4_by_ladders(ctx, params):
    """lem-2.4's check with each U_n(1, 1) from its own uv ladder."""
    p = ctx.p
    for n in range(61):
        u = ctx.uv(1, 1, n)[0]
        want = b4._sign_pow(n - 1) * b4.jacobi(n, 3) % p
        if u != want:
            return Outcome(False, u, f"U_n(1,1) at n = {n}", want, {"n": n})
    return Outcome(True, None, "U_n(1,1) = (-1)^(n-1) (n|3) for n in [0, 60]", None)


def test_lem_2_4_walk_matches_the_ladders():
    for p in sieve_primes(2000)[1:]:
        assert b4._check_lem_2_4(Ctx(p), None) == lem_2_4_by_ladders(Ctx(p), None), p


@pytest.mark.parametrize("wrong_at", [0, 1, 2, 37, 60])
def test_lem_2_4_walk_fails_where_the_ladders_fail(monkeypatch, wrong_at):
    # a right side off by one at n = wrong_at fails both at that n
    monkeypatch.setattr(b4, "jacobi", lambda a, n: jacobi(a, n) + (a == wrong_at))
    for p in sieve_primes(200)[1:]:
        got = b4._check_lem_2_4(Ctx(p), None)
        assert not got.ok and got.witnesses == {"n": wrong_at}, p
        assert got == lem_2_4_by_ladders(Ctx(p), None), p
