"""Applicability records: the predicates they replace, their import check,
and that a form-class statement applies only where its class is defined."""

import inspect
from math import gcd

import pytest

from congrkit.binomsum import TABLE_PRIME_LIMIT
from congrkit.modarith import is_prime, jacobi, sieve_primes
from congrkit.registry import (
    engine, registered_ids, statements_binom3, statements_binom4, statements_tsums,
)
from congrkit.registry.engine import REGISTRY, Applies

# The predicates each statement was registered with before applicability
# became an Applies record, kept as the oracle for the records.
ORACLE = {
    "thm-2.6": lambda p: p != 17,
    "intro-1.1": lambda p: p % 4 == 3,
    "intro-1.2": lambda p: p % 4 == 1,
    "cor-2.1": lambda p: p >= 5,
    "thm-2.1": lambda p: p >= 3,
    "thm-2.2-i": lambda p: p % 4 == 1,
    "thm-2.2-ii": lambda p: p % 4 == 3 and p > 3,
    "cor-2.2-8k7": lambda p: p % 8 == 7,
    "thm-2.3": lambda p: p >= 5,
    "thm-2.4": lambda p: p > 5,
    "thm-2.5": lambda p: p > 5,
    "thm-2.7": lambda p: p not in (3, 13),
    "thm-2.8": lambda p: p % 40 in (1, 9, 11, 13, 19, 37),
    "thm-2.9": lambda p: p >= 5,
    "cor-2.2-mod15": lambda p: p > 5,
    "cor-2.3": lambda p: p > 7,
    "cor-2.4": lambda p: p > 3,
    "thm-2.10": lambda p: p % 4 == 1,
    "cor-2.5": lambda p: p % 4 == 1 and p % 17 in (1, 2, 4, 8, 9, 13, 15, 16),
    "thm-2.11": lambda p: p >= 3,
    "thm-2.12": lambda p: p % 4 == 1,
    "cor-2.7": lambda p: p % 4 == 1 and p not in (5, 17),
    "lem-2.2": lambda p: p >= 3,
    "lem-2.3": lambda p: p >= 3,
    "lem-2.4": lambda p: p >= 3,
    "lem-2.5": lambda p: p >= 5,
    "intro-zps": lambda p: p > 5,
    "intro-1.3": lambda p: p > 3 and p != 23 and p not in (13, 29),
    "lem-3.1": lambda p: p > 3,
    "thm-3.1": lambda p: p > 3,
    "thm-3.2": lambda p: p > 3,
    "lem-3.2": lambda p: p > 3,
    "thm-3.3": lambda p: p > 3,
    "cor-3.1": lambda p: p > 5,
    "thm-3.4": lambda p: p > 5 and p % 15 in (1, 2, 4, 8),
    "thm-3.5": lambda p: p > 5 and p % 15 in (1, 2, 4, 8),
    "thm-3.6": lambda p: p > 3 and jacobi(p, 13) == jacobi(p, 3) != 0
    and p not in (5, 43, 47),
    "thm-3.7": lambda p: jacobi(p, 255) == 1 and p not in (7, 11, 19),
    "thm-3.8": lambda p: p > 3 and jacobi(p, 23) == 1 and p not in (13, 29),
    "thm-3.9": lambda p: p > 3 and jacobi(p, 31) == 1 and p not in (5, 7, 19),
    "thm-3.10": lambda p: p > 3,
    "lem-3.3": lambda p: p > 3 and (jacobi(p, 23) == 1 or jacobi(p, 31) == 1),
    "intro-1.4": lambda p: p % 24 == 13,
    "thm-4.1": lambda p: p > 3,
    "thm-4.2": lambda p: p > 2,
    "thm-4.3": lambda p: p > 3,
    "thm-4.4": lambda p: p > 5,
    "thm-4.5": lambda p: p % 20 == 11,
    "thm-4.6": lambda p: p % 24 == 13,
    "eq-4.1": lambda p: 2 < p <= 1001,
    "eq-4.2": lambda p: 2 < p <= 1999,
    "eq-4.3": lambda p: 2 < p <= 1999,
    "eq-4.4": lambda p: 2 < p <= 1999,
    "delta5-family": lambda p: 5 < p <= 2000,
}


def _primes_above(n: int, count: int) -> list[int]:
    out = []
    while len(out) < count:
        n += 1
        if is_prime(n):
            out.append(n)
    return out


_PRIMES = [q for q in sieve_primes(300_000) if q > 2] + _primes_above(TABLE_PRIME_LIMIT, 50)


def test_the_oracle_names_every_id():
    assert sorted(ORACLE) == registered_ids()


@pytest.mark.parametrize("sid", sorted(ORACLE))
def test_each_record_admits_the_primes_its_predicate_did(sid):
    applies = REGISTRY[sid].applies
    assert isinstance(applies, Applies)
    want = ORACLE[sid]
    assert [q for q in _PRIMES if applies(q)] == [q for q in _PRIMES if want(q)]


# (id, D, condition on p): each form-class statement, with the condition
# under which its check classifies p by the forms of discriminant D
_FORM_CLASS = [
    ("thm-2.8", -40, None),
    ("thm-3.4", -60, None),
    ("thm-3.5", -60, None),
    ("thm-3.6", -351, None),
    ("thm-3.7", -255, None),
    ("thm-3.8", -207, None),
    ("thm-3.9", -279, None),
    ("intro-1.3", -207, 23),
    ("lem-3.3", -207, 23),
    ("lem-3.3", -279, 31),
]


@pytest.mark.parametrize("sid, D, bottom", _FORM_CLASS)
def test_form_class_applicability_implies_the_class_is_defined(sid, D, bottom):
    # (D|p) is a character of p mod |D|, and so is the condition (p|bottom) = 1,
    # as bottom divides D.  So over each unit class mod L = lcm(modulus, |D|)
    # one admitted prime decides (D|p) = 1 for all of them; the other classes
    # hold at most one prime, a divisor of L, checked on its own.  (D|p) = 1
    # also rules out p | D, so sqrt_mod(D % p, p) in classify_by_class is
    # total on the primes where the statement applies.
    applies = REGISTRY[sid].applies
    L = applies.modulus * abs(D) // gcd(applies.modulus, abs(D))

    def checked(q):
        return applies(q) and (bottom is None or jacobi(q, bottom) == 1)

    proved = 0
    for c in range(L):
        if c % applies.modulus not in applies.classes:
            continue
        if gcd(c, L) == 1:
            q = next(q for q in range(c, 10 ** 7, L) if is_prime(q) and applies(q))
        elif is_prime(c):
            q = c
        else:
            continue
        if checked(q):
            assert jacobi(D % q, q) == 1, (sid, D, q)
            proved += 1
    assert proved
    for q in (q for q in range(3, abs(D) + 1, 2) if D % q == 0 and is_prime(q)):
        assert not checked(q), (sid, D, q)


# One malformed record per rule of the import check, written into the
# module source in place of a registered one.
@pytest.mark.parametrize("module, line, bad, error", [
    (statements_binom4, "applies=Applies(40, (1, 9, 11, 13, 19, 37)),",
     "applies=Applies(40, (1, 9, 11, 13, 19, 77)),", "class 77 is not a residue mod 40"),
    (statements_binom3, "applies=Applies(15, (1, 2, 4, 8)),",
     "applies=Applies(15, (1, 2, 4, 5, 8), lo=7),", "class 5 mod 15 holds no prime >= 7"),
    (statements_tsums, "applies=Applies(lo=7, cap=2000),",
     "applies=Applies(lo=2003, cap=2000),", "lo = 2003 is above cap = 2000"),
    (statements_binom4, "applies=Applies(4, (1,), exclude=(5, 17)),",
     "applies=Applies(4, (1,), exclude=(5, 19)),", r"excluded \[19\]"),
])
def test_a_malformed_record_fails_at_import(monkeypatch, module, line, bad, error):
    source = inspect.getsource(module)
    assert line in source
    monkeypatch.setattr(engine, "REGISTRY", {})  # the module registers its ids again
    with pytest.raises(ValueError, match=error):
        exec(compile(source.replace(line, bad), module.__file__, "exec"),
             {"__name__": module.__name__, "__package__": "congrkit.registry"})


def test_register_takes_only_an_applies_record(monkeypatch):
    monkeypatch.setattr(engine, "REGISTRY", {})
    stmt = REGISTRY["thm-4.1"]
    with pytest.raises(ValueError, match="an Applies record"):
        engine.register(engine.Statement(stmt.id, stmt.check, applies=lambda p: p > 3))
