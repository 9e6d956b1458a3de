"""Spot verdicts pinning individual statement rows and witnesses."""

import pytest

from congrkit.modarith import sieve_primes
from congrkit.qform import QuadForm, classify_by_class, represent
from congrkit.registry import check_statement, verify_many
from congrkit.registry.engine import REGISTRY
from congrkit.registry.statements_binom3 import _TABLE_3_4, _TABLE_3_5
from congrkit.registry.statements_binom4 import _TABLE_2_8


def test_quartic_sum_rows():
    v = check_statement("thm-2.4", 7)
    assert (v.outcome, v.lhs, v.row) == ("Pass", 5, "p ≡ 7 (mod 8)")
    v = check_statement("thm-2.5", 11)
    assert v.outcome == "Pass"
    assert v.row == "ratio -1/4: p ≡ 1,9,11,19 (mod 20)"
    v = check_statement("thm-2.7", 53)
    assert (v.outcome, v.row) == ("Pass", "p ≡ 1,9,29 (mod 52)")


def test_form_condition_row_carries_witness():
    v = check_statement("thm-2.8", 41)
    assert v.outcome == "Pass"
    assert v.row == "p = x^2+10y^2, p ≡ 1,9 (mod 40)"
    x, y = v.witnesses["rep"]
    assert x * x + 10 * y * y == 41


def test_thm_2_8_sub_row_fires_on_every_representation():
    # p ≡ 1,9 (mod 40) = x^2+10y^2 and p ≡ 13,37 = 5x^2+2y^2 force y even in
    # every representation, so the one "y even" sub-row sees all of them;
    # p ≡ 11,19 = x^2+10y^2 always has a representation with 4 | x-y
    for p in sieve_primes(10**4):
        if p % 40 in (1, 9, 13, 37):
            form = QuadForm(1, 0, 10) if p % 40 in (1, 9) else QuadForm(5, 0, 2)
            reps = represent(form, p)
            assert reps and all(y % 2 == 0 for _x, y in reps), p
        elif p % 40 in (11, 19):
            assert any((x - y) % 4 == 0 for x, y in represent(QuadForm(1, 0, 10), p)), p


@pytest.mark.parametrize("sid, table, modulus, classes, form, other", [
    pytest.param("thm-2.8", _TABLE_2_8, 40, (1, 9, 11, 19), QuadForm(1, 0, 10),
                 QuadForm(5, 0, 2), id="thm-2.8"),
    pytest.param("thm-3.4", _TABLE_3_4, 15, (1, 4), QuadForm(1, 0, 15),
                 QuadForm(5, 0, 3), id="thm-3.4"),
    pytest.param("thm-3.5", _TABLE_3_5, 15, (1, 4), QuadForm(1, 0, 15),
                 QuadForm(5, 0, 3), id="thm-3.5"),
])
def test_form_table_row_matches_the_residue_ladder(sid, table, modulus, classes, form, other):
    # the p mod 40 and p mod 15 choices the two-class tables replace
    for p in sieve_primes(10**4):
        if REGISTRY[sid].applies(p):
            got = table.forms[classify_by_class(p, table.disc, list(table.forms)).index]
            assert got == (form if p % modulus in classes else other), p


def test_corrected_mod24_row():
    # the 7 (mod 24) row value is -1; the first two such primes
    for p, lhs in ((7, 6), (31, 30)):
        v = check_statement("thm-4.3", p)
        assert (v.outcome, v.lhs, v.row, v.rhs) == ("Pass", lhs, "p ≡ 7 (mod 24)", lhs)


def test_alternating_sum_over_full_range():
    v = check_statement("intro-zps", 7)
    assert (v.outcome, v.lhs, v.row) == ("Pass", 6, "p ≡ 3 (mod 4)")


def test_cubic_sum_root_branch():
    v = check_statement("intro-1.3", 5)
    assert v.outcome == "Pass"
    assert v.lhs == 4 and v.rhs == [4]
    assert v.row == "(p|23) = -1: S is the unique root"


def test_lucas_classification_rows():
    v = check_statement("lem-3.3", 31)
    assert v.outcome == "Pass"
    assert v.row == "(9,3): p represented by [13,1,4], symbol w^1"
    assert v.lhs == [[21, 26]]
    v = check_statement("lem-3.3", 5)
    assert v.outcome == "Pass"
    assert v.row == "(9,-3): p represented by [5,1,14], symbol w^1"


def test_combined_symbol_rows():
    v = check_statement("cor-2.7", 13)
    assert (v.outcome, v.lhs, v.row) == ("Pass", 12, "(p|15) = -1, (p|17) = 1")


def test_disputed_family_witness_structure():
    v = check_statement("delta5-family", 13)
    assert v.outcome == "Pass"
    v = check_statement("delta5-family", 11)
    assert v.outcome == "Fail"
    recs = v.witnesses["delta5"]
    assert {r["r"] for r in recs} == {-2, 0, 1, 2}
    assert all(r["exact"] != r["claimed"] for r in recs)
    assert v.witnesses["row"] == {"exact": -22, "claimed": 18}


def test_every_verified_statement_clean_to_600():
    from congrkit.registry import registered_ids
    for sid in registered_ids():
        r = verify_many([sid], 600, seed=3)[0]
        if r.status == "verified":
            assert r.failed == 0, (sid, r.failures[:2])
        else:
            assert sid in ("thm-4.4", "delta5-family")
