"""The package's small records: construction, repr, equality, hashing,
immutability, pickling and the checks they make when built."""

import copy
import dataclasses
import pickle

import pytest

from congrkit.combsum import TSumKey
from congrkit.cyclotomic import EisensteinInt, GaussianInt, UnityRoot3, UnityRoot4
from congrkit.errors import CongruenceError, OutOfRangeError
from congrkit.qform import ClassMatch, QuadForm
from congrkit.registry import DeltaP
from congrkit.registry.engine import Applies, Outcome, Report, Statement, Verdict

# (record, its repr, an equal record built apart, a record that differs)
CASES = {
    "Outcome": (
        Outcome(False, 3, "row", [1, 2], {"rep": [1, -2]}),
        "Outcome(ok=False, lhs=3, row='row', rhs=[1, 2], witnesses={'rep': [1, -2]})",
        Outcome(ok=False, lhs=3, row="row", rhs=[1, 2], witnesses={"rep": [1, -2]}),
        Outcome(False, 3, "row", [1, 2], {"rep": [1, 2]}),
    ),
    "Applies": (
        Applies(8, (1, 7), 5, 1000, (7,)),
        "Applies(modulus=8, classes=(1, 7), lo=5, cap=1000, exclude=(7,))",
        Applies(modulus=8, classes=(1, 7), lo=5, cap=1000, exclude=(7,)),
        Applies(8, (1, 7), 5, 1000),
    ),
    "Report": (
        Report("thm-2.1", 100, 3, 2, 1, 0, [{"prime": 7}], "verified"),
        "Report(id='thm-2.1', prime_limit=100, checked=3, passed=2, failed=1, "
        "not_applicable=0, failures=[{'prime': 7}], status='verified')",
        Report(id="thm-2.1", prime_limit=100, checked=3, passed=2, failed=1,
               not_applicable=0, failures=[{"prime": 7}], status="verified"),
        Report("thm-2.1", 100, 3, 2, 1, 0, [{"prime": 7}], "disputed"),
    ),
    "TSumKey": (TSumKey(5, 3, 1), "TSumKey(n=5, m=3, r=1)", TSumKey(n=5, m=3, r=1),
                TSumKey(5, 3, 2)),
    "GaussianInt": (GaussianInt(3, -2), "GaussianInt(re=3, im=-2)", GaussianInt(re=3, im=-2),
                    GaussianInt(-2, 3)),
    "EisensteinInt": (EisensteinInt(2, 5), "EisensteinInt(a=2, b=5)",
                      EisensteinInt(a=2, b=5), EisensteinInt(2, -5)),
    "UnityRoot3": (UnityRoot3(2), "UnityRoot3(exponent=2)", UnityRoot3(exponent=2),
                   UnityRoot3(1)),
    "UnityRoot4": (UnityRoot4(3), "UnityRoot4(exponent=3)", UnityRoot4(exponent=3),
                   UnityRoot4(0)),
    "QuadForm": (QuadForm(1, 1, 52), "QuadForm(a=1, b=1, c=52)", QuadForm(a=1, b=1, c=52),
                 QuadForm(1, -1, 52)),
    "ClassMatch": (
        ClassMatch(0, ((1, 2), (-1, -2))),
        "ClassMatch(index=0, representations=((1, 2), (-1, -2)))",
        ClassMatch(index=0, representations=((1, 2), (-1, -2))),
        ClassMatch(1, ((1, 2), (-1, -2))),
    ),
    "DeltaP": (DeltaP(-1, "from-congruence"), "DeltaP(sign=-1, derivation='from-congruence')",
               DeltaP(sign=-1, derivation="from-congruence"), DeltaP(-1, "from-quartic-symbol")),
    "Statement": (
        Statement("thm-x", abs, Applies(8, (1, 7)), "disputed", notes="a note"),
        "Statement(id='thm-x', check=<built-in function abs>, applies=Applies(modulus=8, "
        "classes=(1, 7), lo=3, cap=inf, exclude=()), status='disputed', sampler=None, "
        "hypothesis=None, draw=None, notes='a note')",
        Statement(id="thm-x", check=abs, applies=Applies(8, (1, 7)), status="disputed",
                  notes="a note"),
        Statement("thm-x", abs, Applies(8, (1, 7)), "verified", notes="a note"),
    ),
    "Verdict": (
        Verdict("thm-y", 13, {"a": 5}, "Fail", 3, "row", 4, {"rep": [1, -2]}),
        "Verdict(id='thm-y', prime=13, parameters={'a': 5}, outcome='Fail', lhs=3, row='row', "
        "rhs=4, witnesses={'rep': [1, -2]})",
        Verdict(id="thm-y", prime=13, parameters={"a": 5}, outcome="Fail", lhs=3, row="row",
                rhs=4, witnesses={"rep": [1, -2]}),
        Verdict("thm-y", 13, {"a": 5}, "Fail", 3, "row", 4, {"rep": [1, 2]}),
    ),
}
FIELDS = {
    "Outcome": ("ok", "lhs", "row", "rhs", "witnesses"),
    "Applies": ("modulus", "classes", "lo", "cap", "exclude"),
    "Report": ("id", "prime_limit", "checked", "passed", "failed", "not_applicable", "failures",
               "status"),
    "TSumKey": ("n", "m", "r"),
    "GaussianInt": ("re", "im"),
    "EisensteinInt": ("a", "b"),
    "UnityRoot3": ("exponent",),
    "UnityRoot4": ("exponent",),
    "QuadForm": ("a", "b", "c"),
    "ClassMatch": ("index", "representations"),
    "DeltaP": ("sign", "derivation"),
    "Statement": ("id", "check", "applies", "status", "sampler", "hypothesis", "draw", "notes"),
    "Verdict": ("id", "prime", "parameters", "outcome", "lhs", "row", "rhs", "witnesses"),
}
MUTABLE = {"Outcome", "Report", "Verdict"}
FROZEN = sorted(set(CASES) - MUTABLE)


def field_tuple(record) -> tuple:
    return tuple(getattr(record, f) for f in FIELDS[type(record).__name__])


@pytest.mark.parametrize("name", sorted(CASES))
def test_repr_is_the_field_listing(name):
    record, text, _, _ = CASES[name]
    assert repr(record) == text


@pytest.mark.parametrize("name", sorted(CASES))
def test_equality_is_by_fields_and_type(name):
    record, _, same, other = CASES[name]
    assert record == same and not record != same
    assert record != other and not record == other
    fields = field_tuple(record)
    assert record.__eq__(fields) is NotImplemented
    assert record != fields


@pytest.mark.parametrize("name", FROZEN)
def test_a_frozen_record_hashes_its_field_tuple(name):
    record, _, same, _ = CASES[name]
    fields = field_tuple(record)
    assert hash(record) == hash(same) == hash(fields)
    assert len({record, same}) == 1


@pytest.mark.parametrize("name", sorted(MUTABLE))
def test_a_mutable_record_is_unhashable_and_takes_only_its_fields(name):
    record = CASES[name][0]
    with pytest.raises(TypeError, match="unhashable"):
        hash(record)
    record = copy.copy(record)
    setattr(record, FIELDS[name][0], "changed")
    assert getattr(record, FIELDS[name][0]) == "changed"
    with pytest.raises(AttributeError):
        record.not_a_field = 1


@pytest.mark.parametrize("name", FROZEN)
def test_a_frozen_record_refuses_assignment(name):
    record = CASES[name][0]
    field = FIELDS[name][0]
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, 0)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.not_a_field = 1
    assert getattr(record, field) is before


@pytest.mark.parametrize("name", sorted(CASES))
def test_pickle_and_deepcopy_round_trip(name):
    record = CASES[name][0]
    for back in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record), copy.copy(record)):
        assert type(back) is type(record)
        assert back == record and repr(back) == repr(record)


def test_defaults_and_keywords():
    assert Applies() == Applies(1, (0,), 3, float("inf"), ())
    assert Applies()(3) and Applies()(10**9 + 7)
    assert Applies(lo=11)(7) is False
    assert Outcome(True) == Outcome(True, None, None, None, None)
    assert Outcome(ok=False, row="r").row == "r"
    assert str(QuadForm(2, -1, 26)) == "[2,-1,26]"
    assert str(GaussianInt(3, -2)) == "3-2i" and str(EisensteinInt(2, 5)) == "2+5w"
    assert GaussianInt(3, -2).norm == 13 and EisensteinInt(2, 5).norm == 19


def test_statement_and_verdict_keep_the_dataclass_functions():
    stmt, verdict = CASES["Statement"][0], CASES["Verdict"][0]
    for record in (stmt, verdict):
        assert dataclasses.is_dataclass(record) and dataclasses.is_dataclass(type(record))
        assert tuple(f.name for f in dataclasses.fields(record)) == FIELDS[type(record).__name__]
    assert dataclasses.asdict(verdict) == {
        "id": "thm-y", "prime": 13, "parameters": {"a": 5}, "outcome": "Fail", "lhs": 3,
        "row": "row", "rhs": 4, "witnesses": {"rep": [1, -2]}}
    assert [f.default for f in dataclasses.fields(Verdict)][4:] == [None] * 4
    assert [f.default for f in dataclasses.fields(Statement)][2:] == [
        Applies(), "verified", None, None, None, ""]
    changed = dataclasses.replace(stmt, notes="another note")
    assert type(changed) is Statement and changed.notes == "another note"
    assert changed == Statement("thm-x", abs, Applies(8, (1, 7)), "disputed",
                                notes="another note")
    assert stmt.notes == "a note"


@pytest.mark.parametrize("build, error, message", [
    pytest.param(lambda: TSumKey(-1, 1, 0), OutOfRangeError,
                 r"^bad T-sum key TSumKey\(n=-1, m=1, r=0\)$", id="tsumkey-negative-n"),
    pytest.param(lambda: TSumKey(4, 0, 0), OutOfRangeError, "bad T-sum key", id="tsumkey-m-0"),
    pytest.param(lambda: TSumKey(4, 3, 3), OutOfRangeError, "bad T-sum key", id="tsumkey-r-m"),
    pytest.param(lambda: UnityRoot3(3), CongruenceError, r"^exponent 3 not canonical$",
                 id="unity-root-3"),
    pytest.param(lambda: UnityRoot4(-1), CongruenceError, r"^exponent -1 not canonical$",
                 id="unity-root-4"),
    pytest.param(lambda: Applies(8, (9,)), ValueError, r"^class 9 is not a residue mod 8$",
                 id="applies-class-not-a-residue"),
    pytest.param(lambda: Applies(8, (2,)), ValueError, r"^class 2 mod 8 holds no prime >= 3$",
                 id="applies-class-without-primes"),
    pytest.param(lambda: Applies(lo=10, cap=5), ValueError, r"^lo = 10 is above cap = 5$",
                 id="applies-lo-above-cap"),
    pytest.param(lambda: Applies(8, (1,), exclude=(3, 17)), ValueError,
                 r"^excluded \[3\] would not be admitted anyway$", id="applies-dead-exclusion"),
])
def test_a_bad_record_is_refused_when_built(build, error, message):
    with pytest.raises(error, match=message):
        build()
