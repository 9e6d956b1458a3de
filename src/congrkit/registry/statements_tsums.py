"""Congruence rows for binomial-coefficient class sums.

These statements tie sums of C(n,k) over k in a fixed residue class to
half-index Lucas data: the truncated central sums C(mk, mk/2) x^k at the
ratios where they collapse, exact closed forms for the class sums at small
moduli, and the two families whose published rows disagree with direct
computation (kept with status "disputed", failures reported as data).
"""

from __future__ import annotations

from ..combsum import (
    TSumKey,
    delta5_findings,
    t5_row_claim,
    t_recurrences_check,
    t_sum_exact,
    t0_closed,
)
from .engine import Ctx, Outcome, Statement, _sign_pow, dispatch, register


def _check_intro_1_4(ctx: Ctx, params) -> Outcome:
    s = ctx.sum_binom(12, 6, -1, 4096)
    return Outcome(s == 0, s, "p ≡ 13 (mod 24)", 0)


register(Statement(
    id="intro-1.4",
    status="verified",
    applies=lambda p: p % 24 == 13,
    check=_check_intro_1_4,
    notes="also appears as the second display of thm-4.6; registered on its"
          " own so the id stays addressable",
))


def _check_thm_4_1(ctx: Ctx, params) -> Outcome:
    p = ctx.p
    s = ctx.sum_binom(6, 3, -1, 64)
    e1 = _sign_pow((p + 1) // 4)
    e2 = _sign_pow((p - 1) // 2)
    label, rhs = dispatch("thm-4.1", p, [
        ("p ≡ 1 (mod 3)", p % 3 == 1, lambda: ctx.fr(e1 + 2 * e2, 3)),
        ("p ≡ 2 (mod 3)", p % 3 == 2, lambda: ctx.fr(e1 - e2, 3)),
    ])
    return Outcome(s == rhs, s, label, rhs)


register(Statement(
    id="thm-4.1",
    status="verified",
    applies=lambda p: p > 3,
    check=_check_thm_4_1,
))


def _check_thm_4_2(ctx: Ctx, params) -> Outcome:
    p = ctx.p
    s = 4 * ctx.sum_binom(8, 4, 1, 256, upper=p // 8) % p
    label, rhs = dispatch("thm-4.2", p, [
        ("p ≡ 1 (mod 8)", p % 8 == 1,
         lambda: (1 + _sign_pow((p - 1) // 8) * ctx.pw(2, (p + 3) // 4)) % p),
        ("p ≡ 3 (mod 8)", p % 8 == 3,
         lambda: (-1 + _sign_pow((p - 3) // 8) * ctx.pw(2, (p + 1) // 4)) % p),
        ("p ≡ 5 (mod 8)", p % 8 == 5, lambda: p - 1),
        ("p ≡ 7 (mod 8)", p % 8 == 7,
         lambda: (1 - _sign_pow((p - 7) // 8) * ctx.pw(2, (p + 1) // 4)) % p),
    ])
    return Outcome(s == rhs, s, label, rhs)


register(Statement(
    id="thm-4.2",
    status="verified",
    applies=lambda p: p > 2,
    check=_check_thm_4_2,
))


def _check_thm_4_3(ctx: Ctx, params) -> Outcome:
    p = ctx.p
    s = 6 * ctx.sum_binom(12, 6, 1, 4096, upper=p // 12) % p
    t1 = lambda: ctx.pw(3, (p - 1) // 4)
    t3 = lambda: ctx.pw(3, (p + 1) // 4)
    label, rhs = dispatch("thm-4.3", p, [
        ("p ≡ 1 (mod 24)", p % 24 == 1, lambda: (2 * t1() + 3) % p),
        ("p ≡ 5 (mod 24)", p % 24 == 5, lambda: (t1() - 2) % p),
        ("p ≡ 7 (mod 24)", p % 24 == 7, lambda: p - 1),
        ("p ≡ 11 (mod 24)", p % 24 == 11, lambda: -t3() % p),
        ("p ≡ 13 (mod 24)", p % 24 == 13, lambda: (1 - 2 * t1()) % p),
        ("p ≡ 17 (mod 24)", p % 24 == 17, lambda: -t1() % p),
        ("p ≡ 19 (mod 24)", p % 24 == 19, lambda: p - 3),
        ("p ≡ 23 (mod 24)", p % 24 == 23, lambda: (2 + t3()) % p),
    ])
    return Outcome(s == rhs, s, label, rhs)


register(Statement(
    id="thm-4.3",
    status="verified",
    applies=lambda p: p > 3,
    check=_check_thm_4_3,
    notes="the 7 (mod 24) row is -1: the variant -2 sometimes quoted for that"
          " row fails at every such prime (p = 7 gives LHS = -1, p = 31 gives"
          " -1), and -1 is what the 19 (mod 24) derivation specializes to",
))


def _check_thm_4_4(ctx: Ctx, params) -> Outcome:
    p = ctx.p
    lhs = (5 * ctx.sum_binom(10, 5, -1, 1024, upper=p // 10)
           - _sign_pow((p + 1) // 4)) % p
    a = lambda: ctx.pw(5, (p - 1) // 4)
    b = lambda: ctx.pw(5, (p + 1) // 4)
    label, rhs = dispatch("thm-4.4", p, [
        ("p ≡ 1 (mod 20)", p % 20 == 1, lambda: 4 * a() % p),
        ("p ≡ 3 (mod 20)", p % 20 == 3, lambda: 2 * b() % p),
        ("p ≡ 7 (mod 20)", p % 20 == 7, lambda: b()),
        ("p ≡ 9 (mod 20)", p % 20 == 9, lambda: a()),
        ("p ≡ 11 (mod 20)", p % 20 == 11, lambda: -b() % p),
        ("p ≡ 13 (mod 20)", p % 20 == 13, lambda: -2 * a() % p),
        ("p ≡ 17 (mod 20)", p % 20 == 17, lambda: 3 * a() % p),
        ("p ≡ 19 (mod 20)", p % 20 == 19, lambda: -b() % p),
    ])
    return Outcome(lhs == rhs, lhs, label, rhs)


register(Statement(
    id="thm-4.4",
    status="disputed",
    applies=lambda p: p > 5,
    check=_check_thm_4_4,
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
    status="verified",
    applies=lambda p: p % 20 == 11,
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
    status="verified",
    applies=lambda p: p % 24 == 13,
    check=_check_thm_4_6,
))


_RECURRENCE_MODULI = (3, 4, 5, 6, 10, 12)


def _check_eq_4_1(ctx: Ctx, params) -> Outcome:
    n = (ctx.p - 1) // 2
    bad = [m for m in _RECURRENCE_MODULI if not t_recurrences_check(n, m)]
    return Outcome(not bad, bad, f"reflection and Pascal rows at n = {n}", [])


register(Statement(
    id="eq-4.1",
    status="verified",
    applies=lambda p: 2 < p <= 1001,
    check=_check_eq_4_1,
    notes="prime-free integer identities; capped so exact rows stay cheap,"
          " the direct sweep over all n lives in the tests",
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
        status="verified",
        applies=lambda p: 2 < p <= 1999,
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
    applies=lambda p: 5 < p <= 2000,
    check=_check_delta5,
    notes="the closed forms for the class sums mod 5 hold for even n but fail"
          " for every odd n (n = 1 gives 3 vs -2), and the rows at"
          " (p-1)/2 fail at p = 11, 19, 23; findings carry both sides exactly",
))
