"""Binary quadratic forms: reduction, class groups, representations."""

from math import isqrt

import pytest
from hypothesis import assume, given, strategies as st

from congrkit.errors import (
    InvalidDiscriminantError,
    NoneRepresentsError,
    NonNegativeDiscriminantError,
    NotOneModFourError,
    OutOfRangeError,
)
from congrkit.modarith import jacobi, sieve_primes
from congrkit.qform import (
    CLASS_GROUP_DISC_LIMIT,
    QuadForm,
    classify_by_class,
    class_group,
    reduce,
    represent,
    two_squares,
)
from congrkit.registry import statements_binom3 as b3, statements_binom4 as b4
from congrkit.registry.engine import FormTable


def test_form_basics():
    f = QuadForm(1, 1, 52)
    assert f.disc == 1 - 4 * 52
    assert f.value(2, 1) == 4 + 2 + 52
    assert str(f) == "[1,1,52]"
    assert f.opposite() == QuadForm(1, -1, 52)


def test_reduce_known_pairs():
    assert reduce(QuadForm(23, -23, 8)) == QuadForm(8, 7, 8)
    # [2,5,29] is [2,1,26] shifted by x -> x+y
    assert reduce(QuadForm(2, 5, 29)) == reduce(QuadForm(2, 1, 26))
    assert reduce(QuadForm(31, -31, 10)) == reduce(QuadForm(9, 9, 10))
    assert reduce(QuadForm(35, 29, 8)) == reduce(QuadForm(8, 3, 9))
    assert reduce(QuadForm(1, 1, 52)) == QuadForm(1, 1, 52)


def test_reduce_rejects_indefinite():
    with pytest.raises(NonNegativeDiscriminantError):
        reduce(QuadForm(1, 5, 1))


@given(st.integers(1, 30), st.integers(-30, 30), st.integers(1, 40))
def test_reduce_is_reduced_and_same_disc(a, b, c):
    f = QuadForm(a, b, c)
    assume(f.disc < 0)
    g = reduce(f)
    assert g.is_reduced()
    assert g.disc == f.disc


@given(st.integers(1, 20), st.integers(-20, 20), st.integers(1, 30),
       st.integers(-8, 8), st.integers(-8, 8))
def test_reduce_preserves_represented_values(a, b, c, x, y):
    # a reduced form represents the same numbers.  Its |D| >= 3ac bounds any
    # solution of g(u, v) = n by |u|, |v| <= sqrt(4n/3), so the search is complete.
    f = QuadForm(a, b, c)
    assume(f.disc < 0 and (x, y) != (0, 0))
    n = f.value(x, y)
    g = reduce(f)
    r = isqrt(4 * n // 3) + 1
    found = any(
        g.value(u, v) == n
        for u in range(-r, r + 1)
        for v in range(-r, r + 1)
    )
    assert found


def test_class_group_minus3():
    assert class_group(-3) == [QuadForm(1, 1, 1)]


def test_class_group_minus207():
    forms = sorted(class_group(-207), key=lambda f: (f.a, f.b))
    assert [str(f) for f in forms] == [
        "[1,1,52]", "[2,-1,26]", "[2,1,26]", "[4,-1,13]", "[4,1,13]", "[8,7,8]",
    ]


def test_class_group_sizes():
    assert len(class_group(-255)) == 12
    assert len(class_group(-279)) == 12
    assert len(class_group(-351)) == 12
    assert len(class_group(-4)) == 1
    assert len(class_group(-23)) == 3


def test_class_group_rejects_bad_disc():
    with pytest.raises(InvalidDiscriminantError):
        class_group(5)
    with pytest.raises(InvalidDiscriminantError):
        class_group(-6)  # 2 mod 4


@pytest.mark.parametrize("D", [-CLASS_GROUP_DISC_LIMIT - 4, -10_000_003, -400_000_000_003])
def test_class_group_refuses_a_disc_above_the_limit(D):
    # the enumeration is O(|D|); |D| = 10^7 already takes about half a second
    with pytest.raises(OutOfRangeError, match="class group limit"):
        class_group(D)


def test_represent_spot():
    assert represent(QuadForm(1, 0, 15), 31) == [(-4, -1), (-4, 1), (4, -1), (4, 1)]
    assert represent(QuadForm(1, 0, 15), 7) == []


@pytest.mark.parametrize("p", [-3, 0, 1, 2, 9, 561])
def test_represent_refuses_a_p_that_is_not_an_odd_prime(p):
    with pytest.raises(OutOfRangeError, match="odd prime"):
        represent(QuadForm(1, 1, 1), p)


def _registry_forms():
    """Every form the registry represents primes by: the rows of its FormTables."""
    tables = [t for mod in (b3, b4) for t in vars(mod).values() if isinstance(t, FormTable)]
    tables += [inst["table"] for _name, inst in b3._L33_INSTANCES]
    assert len(tables) == 9
    return {f for t in tables for f in t.forms}


def test_represent_matches_brute_force():
    primes = sieve_primes(1000)[1:]  # p = 2 is refused, see below
    r = isqrt(primes[-1])
    forms = _registry_forms()
    assert len(forms) == 33
    for f in forms:
        found = {}
        for x in range(-r, r + 1):
            for y in range(-r, r + 1):
                found.setdefault(f.value(x, y), []).append((x, y))
        for p in primes:
            brute = [(x, y) for x, y in found.get(p, ())
                     if max(abs(x), abs(y)) <= isqrt(p)]
            assert represent(f, p) == sorted(brute), (f, p)


@given(st.sampled_from(sieve_primes(600)[2:]))
def test_represent_finds_x2_plus_y2(p):
    reps = represent(QuadForm(1, 0, 1), p)
    if p % 4 == 1:
        assert reps and all(x ** 2 + y ** 2 == p for x, y in reps)
    else:
        assert reps == []


def test_two_squares_frozen():
    assert two_squares(5) == (1, 2)
    assert two_squares(13) == (3, 2)
    assert two_squares(29) == (5, 2)
    with pytest.raises(NotOneModFourError):
        two_squares(7)


@given(st.sampled_from([p for p in sieve_primes(2000) if p % 4 == 1]))
def test_two_squares_shape(p):
    c, d = two_squares(p)
    assert c * c + d * d == p
    assert c % 2 == 1 and d % 2 == 0 and c > 0 and d > 0


def test_classify_by_class_buckets():
    targets = [QuadForm(1, 1, 52), QuadForm(23, -23, 8),
               QuadForm(13, 1, 4), QuadForm(29, 5, 2)]
    m = classify_by_class(31, -207, targets)
    assert m.index == 2  # 31 = 13*1 + 1*2 + 4*4 lands in the [13,1,4] class
    assert m.representations == ((-1, -2), (1, 2))


def test_classify_none_represents():
    with pytest.raises(NoneRepresentsError):
        classify_by_class(31, -207, [QuadForm(1, 1, 52)])


def test_classify_duplicate_class_targets_collapse():
    # [1,1,52] and [1,-1,52] are the same class; they share one bucket
    m = classify_by_class(211, -207, [QuadForm(1, 1, 52), QuadForm(1, -1, 52)])
    assert m.index == 0
    assert all(x ** 2 + x * y + 52 * y ** 2 == 211 for x, y in m.representations)
