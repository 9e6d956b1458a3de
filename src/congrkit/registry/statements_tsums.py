"""Congruence rows for binomial-coefficient class sums.

These statements tie sums of C(n,k) over k in a fixed residue class to
half-index Lucas data: the truncated central sums C(mk, mk/2) x^k at the
ratios where they collapse, exact closed forms for the class sums at small
moduli, and the two families whose published rows disagree with direct
computation (kept with status "disputed", failures reported as data).
"""

from __future__ import annotations

from ..combsum import (
    RECURRENCE_INDEX_LIMIT,
    TSumKey,
    delta5_findings,
    t5_row_claim,
    t_recurrences_check,
    t_sum_exact,
    t0_closed,
)
from .engine import Applies, CaseTable, Ctx, Outcome, Statement, _sign_pow, register, row_check


def _check_intro_1_4(ctx: Ctx, params) -> Outcome:
    s = ctx.sum_binom(12, 6, -1, 4096)
    return Outcome(s == 0, s, "p ≡ 13 (mod 24)", 0)


register(Statement(
    id="intro-1.4",
    applies=Applies(24, (13,)),
    check=_check_intro_1_4,
    notes="also appears as the second display of thm-4.6; registered on its"
          " own so the id stays addressable",
))


_TABLE_4_1 = CaseTable(3, tuple(
    # (e1 + c e2) / 3 with e1 = (-1)^[(p+1)/4], e2 = (-1)^((p-1)/2)
    (f"p ≡ {r} (mod 3)", (r,), lambda ctx, c=c: ctx.fr(
        _sign_pow((ctx.p + 1) // 4) + c * _sign_pow((ctx.p - 1) // 2), 3))
    for r, c in ((1, 2), (2, -1))
))


register(Statement(
    id="thm-4.1",
    applies=Applies(lo=5),
    check=row_check(lambda ctx: ctx.sum_binom(6, 3, -1, 64), _TABLE_4_1),
))


_TABLE_4_2 = CaseTable(8, (
    ("p ≡ 1 (mod 8)", (1,), lambda ctx: (
        1 + _sign_pow((ctx.p - 1) // 8) * ctx.pw(2, (ctx.p + 3) // 4)) % ctx.p),
    ("p ≡ 3 (mod 8)", (3,), lambda ctx: (
        -1 + _sign_pow((ctx.p - 3) // 8) * ctx.pw(2, (ctx.p + 1) // 4)) % ctx.p),
    ("p ≡ 5 (mod 8)", (5,), lambda ctx: ctx.p - 1),
    ("p ≡ 7 (mod 8)", (7,), lambda ctx: (
        1 - _sign_pow((ctx.p - 7) // 8) * ctx.pw(2, (ctx.p + 1) // 4)) % ctx.p),
))


register(Statement(
    id="thm-4.2",
    check=row_check(
        lambda ctx: 4 * ctx.sum_binom(8, 4, 1, 256) % ctx.p,
        _TABLE_4_2),
))


_TABLE_4_3 = CaseTable(24, tuple(
    # c0 + c1 t with t = 3^[(p+1)/4], i.e. 3^((p-1)/4) or 3^((p+1)/4) by p mod 4
    (f"p ≡ {r} (mod 24)", (r,),
     lambda ctx, c0=c0, c1=c1: (c0 + c1 * ctx.pw(3, (ctx.p + 1) // 4)) % ctx.p)
    for r, c0, c1 in ((1, 3, 2), (5, -2, 1), (7, -1, 0), (11, 0, -1),
                      (13, 1, -2), (17, 0, -1), (19, -3, 0), (23, 2, 1))
))


register(Statement(
    id="thm-4.3",
    applies=Applies(lo=5),
    check=row_check(
        lambda ctx: 6 * ctx.sum_binom(12, 6, 1, 4096) % ctx.p,
        _TABLE_4_3),
    notes="the 7 (mod 24) row is -1: the variant -2 sometimes quoted for that"
          " row fails at every such prime (p = 7 gives LHS = -1, p = 31 gives"
          " -1), and -1 is what the 19 (mod 24) derivation specializes to",
))


_TABLE_4_4 = CaseTable(20, tuple(
    # coef * 5^[(p+1)/4], i.e. 5^((p-1)/4) or 5^((p+1)/4) by p mod 4
    (f"p ≡ {r} (mod 20)", (r,),
     lambda ctx, coef=coef: coef * ctx.pw(5, (ctx.p + 1) // 4) % ctx.p)
    for r, coef in ((1, 4), (3, 2), (7, 1), (9, 1), (11, -1), (13, -2), (17, 3), (19, -1))
))


def _lhs_4_4(ctx: Ctx) -> int:
    p = ctx.p
    return (5 * ctx.sum_binom(10, 5, -1, 1024) - _sign_pow((p + 1) // 4)) % p


register(Statement(
    id="thm-4.4",
    status="disputed",
    applies=Applies(lo=7),
    check=row_check(_lhs_4_4, _TABLE_4_4),
    notes="the rows as claimed fail at p = 11 (LHS 0, row -5^{(p+1)/4}) and at"
          " 17, 19, 23, ...; the mismatch is reported as data, not repaired",
))


def _check_thm_4_5(ctx: Ctx, params) -> Outcome:
    p = ctx.p
    s = ctx.sum_binom(20, 10, 1, 4 ** 10)
    rhs = ctx.fr(_sign_pow((p + 1) // 4), 10)
    return Outcome(s == rhs, s, "p ≡ 11 (mod 20)", rhs)


register(Statement(
    id="thm-4.5",
    applies=Applies(20, (11,)),
    check=_check_thm_4_5,
))


def _check_thm_4_6(ctx: Ctx, params) -> Outcome:
    p = ctx.p
    s24 = ctx.sum_binom(24, 12, 1, 4 ** 12)
    rhs24 = ctx.fr(1 - 2 * ctx.pw(3, (p - 1) // 4), 12)
    if s24 != rhs24:
        return Outcome(False, s24, "p ≡ 13 (mod 24), C(24k,12k) display", rhs24)
    s12 = ctx.sum_binom(12, 6, -1, 4096)
    return Outcome(s12 == 0, [s24, s12], "p ≡ 13 (mod 24), both displays",
                   [rhs24, 0])


register(Statement(
    id="thm-4.6",
    applies=Applies(24, (13,)),
    check=_check_thm_4_6,
))


_RECURRENCE_MODULI = (3, 4, 5, 6, 10, 12)


def _check_eq_4_1(ctx: Ctx, params) -> Outcome:
    n = (ctx.p - 1) // 2
    bad = [m for m in _RECURRENCE_MODULI if not t_recurrences_check(n, m)]
    return Outcome(not bad, bad, f"reflection and Pascal rows at n = {n}", [])


register(Statement(
    id="eq-4.1",
    applies=Applies(cap=2 * RECURRENCE_INDEX_LIMIT + 1),
    check=_check_eq_4_1,
    notes="prime-free integer identities; capped where n = (p-1)/2 reaches the"
          " guard of t_recurrences_check, the direct sweep over all n lives in the tests",
))


def _make_eq_closed(sid: str, m: int):
    def _check(ctx: Ctx, params) -> Outcome:
        p = ctx.p
        pairs = []
        for n in ((p - 1) // 2, (p + 1) // 2):
            got = t_sum_exact(TSumKey(n, m, 0))
            want = t0_closed(m, n)
            pairs.append((n, got, want))
        bad = [(n, g, w) for n, g, w in pairs if g != w]
        return Outcome(not bad, [g for _, g, _ in pairs],
                       f"closed form for class 0 (mod {m})",
                       [w for _, _, w in pairs],
                       {"mismatches": bad} if bad else None)

    register(Statement(
        id=sid,
        applies=Applies(cap=1999),  # a cost choice: T_SUM_INDEX_LIMIT allows p < 4000
        check=_check,
        notes="prime-free integer identity evaluated at n = (p-1)/2 and"
              " (p+1)/2; the direct sweep over all n lives in the tests",
    ))


_make_eq_closed("eq-4.2", 3)
_make_eq_closed("eq-4.3", 4)
_make_eq_closed("eq-4.4", 6)


def _check_delta5(ctx: Ctx, params) -> Outcome:
    p = ctx.p
    n = (p - 1) // 2
    findings = delta5_findings(n)
    exact, label, claimed = t5_row_claim(p)
    wit = {}
    if findings:
        wit["delta5"] = findings
    if exact != claimed:
        wit["row"] = {"exact": exact, "claimed": claimed}
    ok = not wit
    return Outcome(ok, exact % p, label, claimed % p, wit or None)


register(Statement(
    id="delta5-family",
    status="disputed",
    applies=Applies(lo=7, cap=2000),  # a cost choice, not a guard
    check=_check_delta5,
    notes="the closed forms for the class sums mod 5 hold for even n but fail"
          " for every odd n (n = 1 gives 3 vs -2), and the rows at"
          " (p-1)/2 fail at p = 11, 19, 23; findings carry both sides exactly",
))
