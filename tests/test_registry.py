"""Statement registry: verdicts, reports, determinism, case tables."""

import json

import pytest

from congrkit.binomsum import TABLE_PRIME_LIMIT, mod_tables
from congrkit.errors import (
    CongruenceError,
    InvalidParametersError,
    OutOfRangeError,
    UnknownIdError,
)
from congrkit.registry import (
    check_statement,
    cubic_roots,
    delta_p,
    registered_ids,
    reports_json,
    verify_many,
)
from congrkit import combsum
from congrkit.modarith import is_prime, sieve_primes
from congrkit.registry import Ctx, engine
from congrkit.registry.engine import CaseTable, FormTable
from congrkit.qform import QuadForm
from congrkit.errors import RowDispatchViolationError


def test_registry_population():
    ids = registered_ids()
    assert len(ids) == 54
    assert ids == sorted(ids)
    for expected in ("thm-2.1", "thm-3.8", "thm-4.4", "lem-2.4",
                     "cor-2.2-8k7", "cor-2.2-mod15", "delta5-family"):
        assert expected in ids


def test_check_statement_spot_verdicts():
    v = check_statement("thm-2.6", 7)
    assert v.outcome == "Pass"
    assert v.lhs == 2
    assert v.row == "p ≡ ±6,±7 (mod 17)"

    v = check_statement("thm-4.5", 31)
    assert v.outcome == "Pass" and v.lhs == 28 and v.rhs == 28

    v = check_statement("thm-3.10", 5, params={"a": 1})
    assert v.outcome == "Pass" and v.lhs == 4

    v = check_statement("thm-3.4", 19)
    assert v.outcome == "Pass"
    assert v.witnesses == {"rep": [-2, 1]}

    v = check_statement("thm-2.6", 17)
    assert v.outcome == "NotApplicable"


def test_check_statement_guards():
    with pytest.raises(UnknownIdError):
        check_statement("no-such-id", 7)
    with pytest.raises(OutOfRangeError):
        check_statement("thm-2.6", 9)
    with pytest.raises(OutOfRangeError):
        check_statement("thm-2.6", 2)


_ABOVE_LIMIT = next(q for q in range(TABLE_PRIME_LIMIT + 1, TABLE_PRIME_LIMIT + 100)
                    if is_prime(q))


@pytest.mark.parametrize("p", [1, 2, 9, _ABOVE_LIMIT])
def test_ctx_refuses_p_at_construction(p):
    with pytest.raises(OutOfRangeError, match=str(TABLE_PRIME_LIMIT)):
        Ctx(p)


# lem-3.3 applies above the limit and its check reads no table; eq-4.1 does
# not apply there
@pytest.mark.parametrize("sid, applies", [("lem-3.3", True), ("eq-4.1", False)])
def test_check_statement_refuses_p_above_the_limit(sid, applies):
    assert engine.REGISTRY[sid].applies(_ABOVE_LIMIT) is applies
    with pytest.raises(OutOfRangeError, match=str(TABLE_PRIME_LIMIT)):
        check_statement(sid, _ABOVE_LIMIT)


def test_tables_are_built_only_where_a_check_reads_them(table_builds):
    built = table_builds
    # thm-3.8 (no sampler) and thm-3.10 (sampled) sum only C(4k, 2k) or
    # C(3k, k) to [p/a], which lucas_sum takes without tables: in a serial
    # sweep, in a pool chunk that starts above the first prime and through
    # check_statement alike
    chunk = [q for q in range(1000, 2000) if is_prime(q)]
    for sid in ("thm-3.8", "thm-3.10"):
        report = verify_many([sid], 2000)[0]
        assert report.checked > 0 and report.not_applicable > 0
        report = engine._sweep(([sid], chunk, 2000, 0, False))[sid]
        assert report.checked > 0
        assert check_statement(sid, 1987).outcome == "Pass"
    assert built == []
    # thm-4.1 (no sampler) sums C(6k, 3k), which only the tables give: a
    # serial sweep, a pool chunk that starts above the first prime and
    # check_statement build them at exactly the primes where it applies
    applies = engine.REGISTRY["thm-4.1"].applies
    report = verify_many(["thm-4.1"], 2000)[0]
    assert built == [q for q in range(3, 2000) if is_prime(q) and applies(q)]
    assert len(built) == report.checked > 0
    serial = [q for q in built if q in chunk]
    built.clear()
    report = engine._sweep((["thm-4.1"], chunk, 2000, 0, False))["thm-4.1"]
    assert built == serial == [q for q in chunk if applies(q)]
    assert len(built) == report.checked > 0
    built.clear()
    assert check_statement("thm-4.1", 1987).outcome == "Pass"
    assert built == [1987]
    # sampled sums on another diagonal read the tables at each prime where a
    # check runs; at p = 5 no drawn a is admissible, so nothing is checked
    built.clear()
    report = verify_many(["thm-2.12"], 2000)[0]
    applies = engine.REGISTRY["thm-2.12"].applies
    assert built == [p for p in range(7, 2000) if is_prime(p) and applies(p)]
    assert len(built) == report.checked > 0
    assert applies(5) and report.not_applicable > 0


def test_a_shared_ctx_builds_its_tables_at_most_once(table_builds):
    built = table_builds
    verify_many(registered_ids(), 300)
    assert built and len(built) == len(set(built))


def test_the_caches_hold_one_prime_s_state(table_builds):
    for q in (101, 103, 107):
        check_statement("thm-4.1", q)
    assert table_builds == [101, 103, 107] and mod_tables.cache_info().currsize == 1
    verify_many(["eq-4.2", "delta5-family"], 600)
    assert combsum._binom_row.cache_info().currsize <= 2
    # a check reads its own prime's tables and the rows n = (p -+ 1)/2 only,
    # so a sweep still builds each of them once, at its first read
    table_builds.clear()
    mod_tables.cache_clear()
    combsum._binom_row.cache_clear()
    verify_many(registered_ids(), 2000)
    primes = [q for q in sieve_primes(2000) if q > 2]
    rows = {n for q in primes for n in ((q - 1) // 2, (q + 1) // 2)}
    assert table_builds == primes and mod_tables.cache_info().misses == len(primes) == 302
    assert combsum._binom_row.cache_info().misses == len(rows) == 543


def test_verify_range_counts_add_up():
    r = verify_many(["cor-2.1"], 500)[0]
    assert r.checked == r.passed + r.failed
    assert r.failed == 0
    assert r.status == "verified"
    assert r.prime_limit == 500


def test_verify_range_rejects_tiny_limit():
    with pytest.raises(OutOfRangeError):
        verify_many(["cor-2.1"], 4)


def test_verify_rejects_limit_above_tables_before_sieving(monkeypatch):
    monkeypatch.setattr(engine, "sieve_primes", None)
    with pytest.raises(OutOfRangeError, match=str(TABLE_PRIME_LIMIT)):
        verify_many(["thm-2.6"], TABLE_PRIME_LIMIT + 1)


@pytest.mark.parametrize("jobs", [0, -3])
def test_verify_rejects_jobs_below_one_before_sieving(monkeypatch, jobs):
    monkeypatch.setattr(engine, "sieve_primes", None)
    with pytest.raises(OutOfRangeError, match="jobs"):
        verify_many(["thm-3.8"], 50, jobs=jobs)


@pytest.mark.parametrize("sid, p, params", [
    ("thm-3.10", 13, {"a": 0}),  # a(4-27a) = 0 is no non-residue
    ("thm-2.10", 13, {"b": 13, "m": 1}),  # p | b
    ("thm-2.12", 17, {"a": 1}),  # p | 1+16a^2
])
def test_explicit_params_outside_hypothesis_not_applicable(sid, p, params):
    v = check_statement(sid, p, params=params)
    assert (v.outcome, v.parameters, v.lhs) == ("NotApplicable", params, None)


@pytest.mark.parametrize("sid, params", [
    ("thm-2.10", {"b": 1}),  # missing key
    ("thm-3.10", {"a": "x"}),  # non-integer value
    ("thm-2.6", {"zz": 1}),  # the statement takes no parameters
    ("thm-3.10", {"a": 5, "zz": 5}),  # a key the statement does not take
    ("thm-3.1", {"a": True, "b": 2}),  # a bool is not an integer parameter
])
def test_explicit_params_input_errors(sid, params):
    assert issubclass(InvalidParametersError, CongruenceError)
    with pytest.raises(InvalidParametersError) as info:
        check_statement(sid, 13, params=params)
    assert sid in str(info.value) and repr(params) in str(info.value)


def test_declared_keys_are_the_drawn_keys():
    import random
    from dataclasses import replace
    from congrkit.registry.engine import REGISTRY, register
    sampled = [s for s in REGISTRY.values() if s.sampler]
    assert len(sampled) == 14
    for stmt in sampled:
        drawn = stmt.sampler(random.Random(0), 101)
        assert tuple(drawn) == stmt.keys == tuple(stmt.draw), stmt.id
        declared = replace(stmt, id="copy", sampler=None)
        for bad in (replace(declared, draw=None), replace(declared, hypothesis=None), stmt):
            with pytest.raises(ValueError, match="go together"):
                register(replace(bad, id="copy"))
    assert "copy" not in REGISTRY


def test_drawn_tuples_are_pinned():
    # A passing sampled verdict records only {"samples": 20}, so no report
    # digest sees a drawn tuple; this pins the samplers' draws themselves.
    import hashlib
    import random
    from congrkit.registry.engine import REGISTRY
    primes = [p for p in range(3, 601, 2) if is_prime(p)] + [100003, 100019]
    h = hashlib.sha256()
    n = 0
    for sid in sorted(s.id for s in REGISTRY.values() if s.sampler):
        stmt = REGISTRY[sid]
        for seed in (0, 1, 7):
            for p in filter(stmt.applies, primes):
                rng = random.Random(f"{seed}|{sid}|{p}")
                drawn = [stmt.sampler(rng, p) for _ in range(20)]
                h.update(json.dumps([sid, seed, p, drawn], sort_keys=True).encode())
                n += 1
    assert n == 3735
    assert h.hexdigest() == "59d589340db639425a1a5a2c1a8432d9b763c162bfd681ec042ebff9d2b1f7af"


def test_disputed_statement_reports_failures():
    r = verify_many(["thm-4.4"], 100)[0]
    assert r.status == "disputed"
    assert r.failed > 0
    p11 = [f for f in r.failures if f["prime"] == 11]
    assert p11 and p11[0]["lhs"] == 0
    assert p11[0]["row"] == "p ≡ 11 (mod 20)"
    for f in r.failures:
        assert set(f) == {"prime", "params", "lhs", "row", "rhs", "witnesses"}


def test_fail_fast_keeps_lowest_prime():
    full = verify_many(["thm-4.4"], 100)[0]
    fast = verify_many(["thm-4.4"], 100, fail_fast=True)[0]
    assert fast.failures[0]["prime"] == full.failures[0]["prime"] == 11
    assert len(fast.failures) == 1


def test_reports_json_round_trip():
    reports = verify_many(["thm-2.6", "thm-4.4"], 100)
    text = reports_json(reports)
    parsed = json.loads(text)
    assert [r["id"] for r in parsed] == ["thm-2.6", "thm-4.4"]
    assert parsed[0]["status"] == "verified"
    assert parsed[1]["status"] == "disputed"
    assert text == reports_json(verify_many(["thm-2.6", "thm-4.4"], 100))


@pytest.mark.parametrize("jobs", [1, 2])
def test_repeated_ids_are_reported_once(monkeypatch, jobs):
    monkeypatch.setattr(engine.os, "cpu_count", lambda: 2)
    once = verify_many(["thm-3.8", "thm-2.6"], 100, jobs=jobs)
    again = verify_many(["thm-3.8", "thm-2.6", "thm-3.8", "thm-2.6"], 100, jobs=jobs)
    assert reports_json(again) == reports_json(once)
    assert [(r.id, r.checked, r.not_applicable) for r in once][0] == ("thm-3.8", 6, 18)


def test_jobs_do_not_change_output():
    a = reports_json(verify_many(["thm-2.1", "thm-3.3"], 400, jobs=1, seed=7))
    b = reports_json(verify_many(["thm-2.1", "thm-3.3"], 400, jobs=3, seed=7))
    assert a == b


def test_fail_fast_serial_and_pool_agree(monkeypatch):
    monkeypatch.setattr(engine.os, "cpu_count", lambda: 2)
    ids = ["thm-4.4", "delta5-family", "thm-2.6", "thm-3.10"]
    one, two = (reports_json(verify_many(ids, 600, jobs=j, fail_fast=True))
                for j in (1, 2))
    assert one == two
    assert [len(r["failures"]) for r in json.loads(one)] == [1, 1, 0, 0]


def test_pool_size_is_bounded(monkeypatch):
    asked = []

    class InProcessPool:
        def __init__(self, size):
            asked.append(size)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, tasks):
            return map(fn, tasks)

    class Context:
        Pool = InProcessPool

    want = reports_json(verify_many(["thm-2.1"], 400, jobs=1))
    monkeypatch.setattr(engine, "get_context", lambda method: Context())
    monkeypatch.setattr(engine.os, "cpu_count", lambda: 4)
    assert reports_json(verify_many(["thm-2.1"], 400, jobs=10**6)) == want
    # 45 odd primes to 200 split into 6 chunks of 8
    monkeypatch.setattr(engine.os, "cpu_count", lambda: 64)
    assert reports_json(verify_many(["thm-2.1"], 200, jobs=64)) == \
        reports_json(verify_many(["thm-2.1"], 200, jobs=1))
    monkeypatch.setattr(engine.os, "cpu_count", lambda: None)
    assert reports_json(verify_many(["thm-2.1"], 400, jobs=8)) == want
    assert asked == [4, 6]


def test_verify_many_agrees_with_check_statement():
    # both tally the verdicts of one path: counts and failure dicts match
    ids = registered_ids()
    primes = [q for q in range(3, 301, 2) if is_prime(q)]
    for r in verify_many(ids, 300, seed=5):
        verdicts = [check_statement(r.id, q, seed=5) for q in primes]
        outcomes = [v.outcome for v in verdicts]
        assert (r.checked, r.passed, r.failed, r.not_applicable) == (
            len(primes) - outcomes.count("NotApplicable"), outcomes.count("Pass"),
            outcomes.count("Fail"), outcomes.count("NotApplicable")), r.id
        assert r.failures == [
            {"prime": v.prime, "params": v.parameters or {}, "lhs": v.lhs, "row": v.row,
             "rhs": v.rhs, "witnesses": v.witnesses or {}}
            for v in verdicts if v.outcome == "Fail"], r.id


def test_seed_changes_sampled_parameters_not_verdicts():
    a = verify_many(["thm-2.1"], 300, seed=1)[0]
    b = verify_many(["thm-2.1"], 300, seed=2)[0]
    assert a.failed == b.failed == 0
    assert a.checked == b.checked


def test_case_table_partitions_units():
    rows = (("p ≡ ±1 (mod 8)", (1, -1), lambda ctx: 1),
            ("p ≡ ±3 (mod 8)", (3, 5), lambda ctx: ctx.p - 1))
    table = CaseTable(8, rows)
    assert table.at(Ctx(7)) == ("p ≡ ±1 (mod 8)", 1)
    assert table.at(Ctx(11)) == ("p ≡ ±3 (mod 8)", 10)
    with pytest.raises(RowDispatchViolationError, match="class 7"):
        CaseTable(8, rows + (("again", (7,), lambda ctx: 0),))
    with pytest.raises(RowDispatchViolationError, match=r"units \[3\]"):
        CaseTable(8, (rows[0], ("p ≡ 5 (mod 8)", (5,), lambda ctx: 0)))
    with pytest.raises(RowDispatchViolationError, match="non-unit 4"):
        CaseTable(8, rows + (("even", (4,), lambda ctx: 0),))
    mod3 = CaseTable(3, (("1", (1,), lambda ctx: 1), ("2", (2,), lambda ctx: 0)))
    with pytest.raises(RowDispatchViolationError, match="divides the modulus"):
        mod3.at(Ctx(3))


# one form per class of H(-207) up to inversion: [29,5,2] is the class of [2,-1,26]
_ROWS_207 = (((1, 1, 52), ()), ((8, 7, 8), ()), ((13, 1, 4), ()), ((29, 5, 2), ()))


@pytest.mark.parametrize("rows, match", [
    pytest.param(_ROWS_207[:3], r"no row for the classes \[2,-1,26\]$", id="dropped-row"),
    pytest.param(_ROWS_207 + (((4, -1, 13), ()),), r"row \[4,-1,13\] is no new class",
                 id="two-forms-of-one-class"),
    pytest.param(_ROWS_207[:3] + (((1, 0, 10), ()),), r"row \[1,0,10\] is no new class",
                 id="other-disc"),
    pytest.param(_ROWS_207 + (((3, 3, 18), ()),), r"row \[3,3,18\] is no new class",
                 id="not-primitive"),
])
def test_form_table_names_each_class_once(rows, match):
    assert FormTable(-207, _ROWS_207).forms[3] == QuadForm(29, 5, 2)
    with pytest.raises(RowDispatchViolationError, match=match):
        FormTable(-207, rows)


def test_form_table_sub_rows_at_one_prime():
    # 31 = x^2+15y^2 only at (±4, ±1)
    def table(*sub_rows):
        return FormTable(-60, (((1, 0, 15), sub_rows), ((5, 0, 3), ())))

    always = ("any", lambda x, y: True, lambda ctx, x, y: 1)
    out = table(always).compare(Ctx(31), [1, 1], "pre: ")
    assert (out.ok, out.row, out.rhs, out.witnesses) == (True, "pre: any", 1, {"rep": [-4, -1]})
    x_sign = ("x", lambda x, y: True, lambda ctx, x, y: x)
    out = table(x_sign).compare(Ctx(31), 4)
    assert (out.ok, out.rhs) == (False, [4, 27])
    assert out.witnesses == {"reps": [(-4, -1), (-4, 1), (4, -1), (4, 1)]}
    with pytest.raises(RowDispatchViolationError, match="distinct sub-rows"):
        table(always, ("also", lambda x, y: y > 0, lambda ctx, x, y: 1)).compare(Ctx(31), 1)
    with pytest.raises(RowDispatchViolationError, match="matches a sub-row"):
        table(("never", lambda x, y: False, lambda ctx, x, y: 1)).compare(Ctx(31), 1)


def test_cubic_roots_examples():
    assert cubic_roots(23, 3, 1, 5) == {4}
    assert cubic_roots(1, 0, 0, 7) == {0}
    assert cubic_roots(1, 0, -1, 7) == {1, 2, 4}
    with pytest.raises(OutOfRangeError):
        cubic_roots(1, 1, 1, 3)
    # x^3 = 1 mod 9 holds at {1, 4, 7}; the gcd over a field would say {1}
    for p in (9, 25, 35, 10001):
        with pytest.raises(OutOfRangeError, match="prime"):
            cubic_roots(1, 0, -1, p)


def test_cubic_roots_refuses_the_zero_polynomial_above_the_table_limit():
    assert cubic_roots(0, 0, 0, 101) == set(range(101))
    assert cubic_roots(101, -202, 0, 101) == set(range(101))
    # refused before the set of all _ABOVE_LIMIT residues is built
    with pytest.raises(OutOfRangeError, match="zero polynomial"):
        cubic_roots(0, 0, 0, _ABOVE_LIMIT)
    assert cubic_roots(0, 0, 5, _ABOVE_LIMIT) == set()


def test_delta_p_cross_derivation_small():
    for p in (3, 7, 11, 13, 19, 23, 29, 37):
        if (2 * 5) % p == 0:
            continue
        fixed, formula = delta_p(1, 1, p)
        if fixed is not None:
            assert fixed.sign == formula.sign
        assert formula.sign in (1, -1)


def test_statement_metadata_examples():
    from congrkit.registry.engine import REGISTRY
    assert REGISTRY["thm-4.4"].status == "disputed"
    assert REGISTRY["delta5-family"].status == "disputed"
    assert REGISTRY["thm-2.6"].status == "verified"
    assert REGISTRY["thm-4.3"].notes  # the corrected row is documented
