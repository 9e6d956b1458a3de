"""Case tables for truncated sums of C(4k,2k) x^k and C(8k,4k) x^k.

Each register() call pairs an Applies record of the primes the statement
holds at (every odd prime when omitted) with a check that evaluates the sum
at one prime and looks up the matching right-hand row, mostly in a CaseTable
on p mod M.  Parameterized statements state their tuple once, as
draw={name: draw(rng, p)} in draw order, which gives the parameter keys, and
their hypothesis once, as a predicate that both filters the seeded draws and
guards explicit parameters.
"""

from __future__ import annotations

from math import gcd

from ..binomsum import binom_shift_lemma_check
from ..cyclotomic import GaussianInt, quartic_symbol
from ..errors import CongruenceError, NotCoprimeError
from ..modarith import jacobi, sqrt_mod
from ..record import FrozenRecord
from .engine import (
    Applies,
    CaseTable,
    Ctx,
    FormTable,
    Outcome,
    Statement,
    _sign_pow,
    register,
    row_check,
    small,
    small_signed,
    unit,
    unit_not_one,
)


# ------------------------------------------------ tuple hypotheses

def _pq_units(t, p):
    return t["P"] * t["Q"] % p != 0


def _pq_split(t, p):
    # Q a nonzero square, P a unit and p not dividing P^2-4Q
    P, Q = t["P"], t["Q"]
    return P * (P * P - 4 * Q) % p != 0 and jacobi(Q, p) == 1


def _bm_coprime(t, p):
    b, m = t["b"], t["m"]
    return gcd(b, m) == 1 and b * m * (b * b + 4 * m * m) % p != 0


# ------------------------------------------------- alternating sum mod 17

def _t17(coef):
    # coef * 17^[p/4]; [p/4] is (p-1)/4 or (p-3)/4 by the class of p mod 4
    return lambda ctx: coef * ctx.pw(17, ctx.p // 4) % ctx.p


def _mod68(mod4, mod17):
    # the classes mod 68 with p mod 4 in mod4 and p mod 17 in mod17
    return tuple(r for r in range(68) if r % 4 in mod4 and r % 17 in mod17)


_TABLE_2_6 = CaseTable(68, (
    ("p ≡ ±1,±4 (mod 17)", _mod68((1, 3), (1, 4, 13, 16)), _t17(1)),
    ("p ≡ ±2,±8 (mod 17)", _mod68((1, 3), (2, 8, 9, 15)), _t17(-1)),
    ("p ≡ ±3,±5,±6,±7 (mod 17)", _mod68((1,), (3, 5, 6, 7, 10, 11, 12, 14)),
     lambda ctx: 0),
    ("p ≡ ±3,±5 (mod 17)", _mod68((3,), (3, 5, 12, 14)), _t17(4)),
    ("p ≡ ±6,±7 (mod 17)", _mod68((3,), (6, 7, 10, 11)), _t17(-4)),
))
_CHECK_2_6 = row_check(lambda ctx: ctx.sum_binom(4, 2, -1), _TABLE_2_6)


register(Statement(
    id="thm-2.6",
    applies=Applies(exclude=(17,)),
    check=_CHECK_2_6,
))


# intro-1.1 is the p ≡ 3 (mod 4) half of thm-2.6
register(Statement(
    id="intro-1.1",
    applies=Applies(4, (3,)),
    check=_CHECK_2_6,
))


def _two_sq_symbol(c, d, a, N):
    # (c - 4ad | N) over all four sign choices; None when they disagree
    vals = {jacobi(sc * c - 4 * a * sd * d, N) for sc in (1, -1) for sd in (1, -1)}
    if len(vals) != 1:
        return None
    return vals.pop()


def _check_intro_1_2(ctx: Ctx, params) -> Outcome:
    p = ctx.p
    a = params["a"]
    s = ctx.sum_binom(4, 2, -a * a)
    N = 16 * a * a + 1
    if ctx.jac(N) == -1:
        return Outcome(s == 0, s, "(16a^2+1|p) = -1", 0)
    c, d = ctx.two_sq()
    sym = _two_sq_symbol(c, d, a, N)
    if sym is None:
        return Outcome(False, s, "(16a^2+1|p) = 1", None,
                       {"c": c, "d": d, "note": "symbol depends on sign choice"})
    return Outcome(s == sym % p, s, "(16a^2+1|p) = 1", sym % p, {"c": c, "d": d})


def _a_16sq(t, p):
    a = t["a"]
    return a * (16 * a * a + 1) % p != 0


register(Statement(
    id="intro-1.2",
    applies=Applies(4, (1,)),
    check=_check_intro_1_2,
    draw={"a": small},
    hypothesis=_a_16sq,
    notes="sampling also skips p | a: the underlying two-squares row needs p coprime to 8a",
))


# -------------------------------------------------------- fixed-ratio rows

_RATIO_1_4 = CaseTable(3, (
    ("p ≡ 1 (mod 3)", (1,), lambda ctx: _sign_pow((ctx.p - 1) // 2) % ctx.p),
    ("p ≡ 2 (mod 3)", (2,), lambda ctx: 0),
))
_RATIO_1_64 = CaseTable(24, (
    ("ratio 1/64: p ≡ 5,7,17,19 (mod 24)", (5, 7, 17, 19), lambda ctx: 0),
    ("ratio 1/64: p ≡ 1,23 (mod 24)", (1, 23), lambda ctx: 1),
    ("ratio 1/64: p ≡ 11,13 (mod 24)", (11, 13), lambda ctx: ctx.p - 1),
))


def _check_cor_2_1(ctx: Ctx, params) -> Outcome:
    s1 = ctx.sum_binom(4, 2, 1, 16)
    r1 = ctx.fr(ctx.jac(2), 2)
    if s1 != r1:
        return Outcome(False, s1, "ratio 1/16", r1)
    s2 = ctx.sum_binom(4, 2, 1, 4)
    label2, r2 = _RATIO_1_4.at(ctx)
    if s2 != r2:
        return Outcome(False, s2, "ratio 1/4: " + label2, r2)
    s3 = ctx.sum_binom(4, 2, 1, 64)
    label3, r3 = _RATIO_1_64.at(ctx)
    return Outcome(s3 == r3, s3, label3, r3)


register(Statement(
    id="cor-2.1",
    applies=Applies(lo=5),
    check=_check_cor_2_1,
    notes="stated for every odd prime, but at p = 3 the sum is 1 and no mod 24 row"
          " reproduces it; restricted to p >= 5",
))


def _check_thm_2_1(ctx: Ctx, params) -> Outcome:
    p = ctx.p
    P, Q = params["P"], params["Q"]
    lhs1 = ctx.sum_binom(4, 2, P * P, 64 * Q)
    rhs1 = ctx.pw(-Q, -(p // 4)) * ctx.uv(P, Q, (p + ctx.jac(-1)) // 2)[0] % p
    if lhs1 != rhs1:
        return Outcome(False, lhs1, "ratio P^2/(64Q) vs U_{(p+(-1|p))/2}", rhs1)
    lhs2 = ctx.sum_binom(4, 2, Q, 4 * P * P)
    rhs2 = ctx.jac(P) * ctx.uv(P, Q, (p + 1) // 2)[0] % p
    return Outcome(lhs2 == rhs2, lhs2, "ratio Q/(4P^2) vs (P|p) U_{(p+1)/2}", rhs2)


register(Statement(
    id="thm-2.1",
    check=_check_thm_2_1,
    draw={"P": unit, "Q": unit},
    hypothesis=_pq_units,
))


def _check_thm_2_2_i(ctx: Ctx, params) -> Outcome:
    p = ctx.p
    x = params["x"]
    lhs = ctx.sum_binom(4, 2, x, 16)
    rhs = ctx.pw(x, (p - 1) // 4) * ctx.sum_binom(4, 2, 1, 16 * x) % p
    return Outcome(lhs == rhs, lhs, "x^((p-1)/4) transfer", rhs)


def _x_unit(t, p):
    return t["x"] % p != 0


register(Statement(
    id="thm-2.2-i",
    applies=Applies(4, (1,)),
    check=_check_thm_2_2_i,
    draw={"x": unit_not_one},
    hypothesis=_x_unit,
))


def _check_thm_2_2_ii(ctx: Ctx, params) -> Outcome:
    p = ctx.p
    x = params["x"]
    lhs = ctx.sum_binom(4, 2, 1, 16 * x)
    t = (1 - ctx.inv(x)) % p
    rhs = ctx.pw(t, (p - 3) // 4) * ctx.sum_binom(4, 2, 1, 16 * (1 - x)) % p
    return Outcome(lhs == rhs, lhs, "(1-1/x)^((p-3)/4) transfer", rhs)


def _x_and_1_minus_x_units(t, p):
    return t["x"] * (1 - t["x"]) % p != 0


register(Statement(
    id="thm-2.2-ii",
    applies=Applies(4, (3,), lo=5),
    check=_check_thm_2_2_ii,
    draw={"x": unit_not_one},
    hypothesis=_x_and_1_minus_x_units,
))


def _check_cor_2_2_8k7(ctx: Ctx, params) -> Outcome:
    s = ctx.sum_binom(4, 2, 1, 8)
    return Outcome(s == 0, s, "always", 0)


register(Statement(
    id="cor-2.2-8k7",
    applies=Applies(8, (7,)),
    check=_check_cor_2_2_8k7,
))


def _check_thm_2_3(ctx: Ctx, params) -> Outcome:
    p = ctx.p
    P, Q = params["P"], params["Q"]
    fired = []
    if ctx.jac(4 * Q - P * P) == -1:
        s = ctx.sum_binom(4, 2, P * P, 64 * Q)
        if s != 0:
            return Outcome(False, s, "(4Q-P^2|p) = -1", 0)
        fired.append("(4Q-P^2|p) = -1")
    if ctx.jac(P * P - 4 * Q) == -1:
        s = ctx.sum_binom(4, 2, Q, 4 * P * P)
        if s != 0:
            return Outcome(False, s, "(P^2-4Q|p) = -1", 0)
        fired.append("(P^2-4Q|p) = -1")
    return Outcome(True, 0, "; ".join(fired) or "vacuous", 0)


register(Statement(
    id="thm-2.3",
    applies=Applies(lo=5),
    check=_check_thm_2_3,
    draw={"P": unit, "Q": unit},
    hypothesis=_pq_split,
    notes="conditional vanishing rows; both hypotheses can fail, in which case the"
          " draw is vacuously true; no admissible pair exists at p = 3",
))


_TABLE_2_4 = CaseTable(8, (
    ("p ≡ 1 (mod 8)", (1,),
     lambda ctx: _sign_pow((ctx.p - 1) // 8) * ctx.pw(2, (ctx.p - 1) // 4) % ctx.p),
    ("p ≡ 3 (mod 8)", (3,),
     lambda ctx: _sign_pow((ctx.p - 3) // 8) * ctx.pw(2, (ctx.p - 3) // 4) % ctx.p),
    ("p ≡ 5 (mod 8)", (5,), lambda ctx: 0),
    ("p ≡ 7 (mod 8)", (7,),
     lambda ctx: _sign_pow((ctx.p + 1) // 8) * ctx.pw(2, (ctx.p - 3) // 4) % ctx.p),
))


register(Statement(
    id="thm-2.4",
    applies=Applies(lo=7),
    check=row_check(lambda ctx: ctx.sum_binom(4, 2, -1, 16), _TABLE_2_4),
))


def _t5(coef):
    # coef * (-1)^[(p+5)/10] * 5^[p/4]
    return lambda ctx: (coef * _sign_pow((ctx.p + 5) // 10) * ctx.pw(5, ctx.p // 4)
                        % ctx.p)


_TABLES_2_5 = (
    CaseTable(20, (
        ("ratio -1/64: p ≡ 1,3,7,9 (mod 20)", (1, 3, 7, 9), _t5(1)),
        ("ratio -1/64: p ≡ 11,19 (mod 20)", (11, 19), _t5(2)),
        ("ratio -1/64: p ≡ 13,17 (mod 20)", (13, 17), lambda ctx: 0),
    )),
    CaseTable(20, (
        ("ratio -1/4: p ≡ 1,9,11,19 (mod 20)", (1, 9, 11, 19), _t5(1)),
        ("ratio -1/4: p ≡ 3,7 (mod 20)", (3, 7), _t5(-2)),
        ("ratio -1/4: p ≡ 13,17 (mod 20)", (13, 17), lambda ctx: 0),
    )),
)


def _check_thm_2_5(ctx: Ctx, params) -> Outcome:
    s1 = ctx.sum_binom(4, 2, -1, 64)
    label1, r1 = _TABLES_2_5[0].at(ctx)
    if s1 != r1:
        return Outcome(False, s1, label1, r1)
    s2 = ctx.sum_binom(4, 2, -1, 4)
    label2, r2 = _TABLES_2_5[1].at(ctx)
    return Outcome(s2 == r2, s2, label2, r2)


register(Statement(
    id="thm-2.5",
    applies=Applies(lo=7),
    check=_check_thm_2_5,
))


_TABLE_2_7 = CaseTable(52, tuple(
    # coef * 13^[p/4]
    (label, classes, lambda ctx, coef=coef: coef * ctx.pw(13, ctx.p // 4) % ctx.p)
    for label, classes, coef in (
        ("p ≡ 1,9,29 (mod 52)", (1, 9, 29), 1),
        ("p ≡ 17,25,49 (mod 52)", (17, 25, 49), -1),
        ("p ≡ 23,43,51 (mod 52)", (23, 43, 51), 3),
        ("p ≡ 3,27,35 (mod 52)", (3, 27, 35), -3),
        ("p ≡ 5,21,33,37,41,45 (mod 52)", (5, 21, 33, 37, 41, 45), 0),
        ("p ≡ 7,11,47 (mod 52)", (7, 11, 47), 2),
        ("p ≡ 15,19,31 (mod 52)", (15, 19, 31), -2),
    )
))


register(Statement(
    id="thm-2.7",
    applies=Applies(lo=5, exclude=(13,)),
    check=row_check(
        lambda ctx: ctx.jac(3) * ctx.sum_binom(4, 2, -1, 36) % ctx.p,
        _TABLE_2_7),
))


def _by_half_y(ctx: Ctx, x: int, y: int) -> int:
    return _sign_pow(ctx.p // 3 + abs(y) // 2)


# x^2+10y^2 = p has y even when p ≡ 1,9 (mod 40), and x, y odd when p ≡ 11,19
_TABLE_2_8 = FormTable(-40, (
    ((1, 0, 10), (
        ("p = x^2+10y^2, p ≡ 1,9 (mod 40)", lambda x, y: y % 2 == 0, _by_half_y),
        ("p = x^2+10y^2 with 4 | x-y, p ≡ 11,19 (mod 40)", lambda x, y: (x - y) % 4 == 0,
         lambda ctx, x, y: _sign_pow(ctx.p // 3) * ctx.fr(y, x)),
    )),
    ((5, 0, 2), (("p = 5x^2+2y^2, p ≡ 13,37 (mod 40)", lambda x, y: y % 2 == 0, _by_half_y),)),
))


register(Statement(
    id="thm-2.8",
    applies=Applies(40, (1, 9, 11, 13, 19, 37)),
    check=row_check(lambda ctx: ctx.sum_binom(4, 2, -1, 144), _TABLE_2_8),
))


def _check_thm_2_9(ctx: Ctx, params) -> Outcome:
    p = ctx.p
    a = params["a"]
    s = ctx.sum_binom(4, 2, a * a)
    if ctx.jac(1 - 16 * a * a) == -1:
        return Outcome(s == 0, s, "(1-16a^2|p) = -1", 0)
    rhs = ctx.jac(1 - 4 * a) % p
    return Outcome(s == rhs, s, "(1-16a^2|p) = 1", rhs)


def _a_16sq_minus(t, p):
    return (16 * t["a"] * t["a"] - 1) % p != 0


register(Statement(
    id="thm-2.9",
    applies=Applies(lo=5),
    check=_check_thm_2_9,
    draw={"a": unit},
    hypothesis=_a_16sq_minus,
    notes="no residue a survives the 16a^2 != 1 filter at p = 3",
))


_TABLE_2_2_MOD15 = CaseTable(15, (
    ("p ≡ 7,11,13,14 (mod 15)", (7, 11, 13, 14), lambda ctx: 0),
    ("p ≡ 1,4 (mod 15)", (1, 4), lambda ctx: 1),
    ("p ≡ 2,8 (mod 15)", (2, 8), lambda ctx: ctx.p - 1),
))


register(Statement(
    id="cor-2.2-mod15",
    applies=Applies(lo=7),
    check=row_check(lambda ctx: ctx.sum_binom(4, 2, 1), _TABLE_2_2_MOD15),
))


_TABLE_COR_2_3 = CaseTable(7, (
    ("p ≡ 1,2,4 (mod 7)", (1, 2, 4), lambda ctx: 1),
    ("p ≡ 3,5,6 (mod 7)", (3, 5, 6), lambda ctx: 0),
))


register(Statement(
    id="cor-2.3",
    applies=Applies(lo=11),
    check=row_check(lambda ctx: ctx.sum_binom(4, 2, 4), _TABLE_COR_2_3),
))


register(Statement(
    id="cor-2.4",
    applies=Applies(lo=5),
    check=row_check(lambda ctx: ctx.sum_binom(4, 2, 1, 4), _RATIO_1_4),
))


# ---------------------------------------------- two-squares symbol tables

def _thm_2_10_value(ctx: Ctx, b, m, c, d):
    p = ctx.p
    if b % 2:
        return jacobi(b * c + 2 * m * d, b * b + 4 * m * m) % p
    h = b // 2
    if h % 2:
        t = h * c + m * d
        return _sign_pow((t * t - 1) // 8 + d // 2) * jacobi(t, (h * h + m * m) // 2) % p
    return jacobi(m * c - h * d, h * h + m * m) % p


def _check_thm_2_10(ctx: Ctx, params) -> Outcome:
    p = ctx.p
    b, m = params["b"], params["m"]
    lhs1 = ctx.jac(m) * ctx.sum_binom(4, 2, -b * b, 64 * m * m) % p
    lhs2 = ctx.jac(b) * ctx.sum_binom(4, 2, -m * m, 4 * b * b) % p
    if ctx.jac(b * b + 4 * m * m) == -1:
        ok = lhs1 == 0 and lhs2 == 0
        return Outcome(ok, [lhs1, lhs2], "(b^2+4m^2|p) = -1", [0, 0])
    c, d = ctx.two_sq()
    if b % 2:
        label = "b odd, (b^2+4m^2|p) = 1"
    elif (b // 2) % 2:
        label = "b ≡ 2 (mod 4), (b^2+4m^2|p) = 1"
    else:
        label = "4 | b, (b^2+4m^2|p) = 1"
    vals = {_thm_2_10_value(ctx, b, m, sc * c, sd * d)
            for sc in (1, -1) for sd in (1, -1)}
    if len(vals) != 1:
        return Outcome(False, [lhs1, lhs2], label, sorted(vals),
                       {"c": c, "d": d, "note": "value depends on sign choice"})
    rhs = vals.pop()
    return Outcome(lhs1 == rhs and lhs2 == rhs, [lhs1, lhs2], label, [rhs, rhs],
                   {"c": c, "d": d})


register(Statement(
    id="thm-2.10",
    applies=Applies(4, (1,)),
    check=_check_thm_2_10,
    draw={"b": small_signed, "m": small_signed},
    hypothesis=_bm_coprime,
    notes="sampling also skips p | b, which the two even sub-rows implicitly need",
))


def _check_cor_2_5(ctx: Ctx, params) -> Outcome:
    p = ctx.p
    s = ctx.sum_binom(4, 2, -1)
    c, d = ctx.two_sq()
    sym = _two_sq_symbol(c, d, 1, 17)
    if sym is None:
        return Outcome(False, s, "(c-4d|17)", None, {"c": c, "d": d})
    return Outcome(s == sym % p, s, "(c-4d|17)", sym % p, {"c": c, "d": d})


register(Statement(
    id="cor-2.5",
    applies=Applies(68, _mod68((1,), (1, 2, 4, 8, 9, 13, 15, 16))),
    check=_check_cor_2_5,
))


# ------------------------------------------------ quartic-sign displays

class DeltaP(FrozenRecord):
    __slots__ = ("sign", "derivation")

    def __init__(self, sign: int, derivation: str):
        object.__setattr__(self, "sign", sign)
        object.__setattr__(self, "derivation", derivation)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.sign == other.sign and self.derivation == other.derivation

    def __hash__(self) -> int:
        return hash((self.sign, self.derivation))


def _delta_display_rows(b: int, m: int, p: int) -> tuple:
    """Row shape of the two quartic-sign displays at p.

    Each display claims lhs == coeff * sign * N^e mod p with N = b^2 + 4m^2;
    coeff 0 encodes the rows whose value is plain zero.  Returns
    (sym, e, npow, (coeff_first, coeff_second), row_label).
    """
    N = b * b + 4 * m * m
    sym = jacobi(N, p)
    if p % 4 == 1:
        e = (p - 1) // 4
        coeffs = (1, 1) if sym == 1 else (0, 0)
        label = f"4 | p-1, (N|p) = {sym}"
    else:
        e = (p - 3) // 4
        coeffs = (b, 2 * m) if sym == 1 else (2 * m, -b)
        label = f"4 | p-3, (N|p) = {sym}"
    return sym, e, pow(N % p, e, p), coeffs, label


def delta_solve(b: int, m: int, ctx: Ctx) -> dict:
    """Solve both displays for the sign; None when the zero rows fire.

    first display: (b|p) sum C(4k,2k) (-m^2/4b^2)^k;
    second display: (m|p) sum C(4k,2k) (-b^2/64m^2)^k.
    """
    p = ctx.p
    first = ctx.jac(b) * ctx.sum_binom(4, 2, -m * m, 4 * b * b) % p
    second = ctx.jac(m) * ctx.sum_binom(4, 2, -b * b, 64 * m * m) % p
    sym, e, npow, coeffs, label = _delta_display_rows(b, m, p)
    data = {
        "sym": sym,
        "lhs": [first, second],
        "row": label,
        "consistent": True,
        "delta": None,
    }
    if coeffs == (0, 0):
        data["consistent"] = first == 0 and second == 0
        data["rhs"] = [0, 0]
        return data
    d1 = first * ctx.inv(coeffs[0] * npow) % p
    d2 = second * ctx.inv(coeffs[1] * npow) % p
    signs = {1: 1, p - 1: -1}
    if d1 not in signs or d1 != d2:
        data["consistent"] = False
        data["rhs"] = [d1, d2]
        return data
    data["delta"] = signs[d1]
    data["rhs"] = [
        coeffs[0] % p * signs[d1] % p * npow % p,
        coeffs[1] % p * signs[d1] % p * npow % p,
    ]
    return data


def delta_sign_from_symbol(b: int, m: int, p: int) -> int:
    """The sign given by the quartic-symbol formula (times i when
    (b^2+4m^2|p) = -1).  Raises when the symbol lands off the real axis."""
    sym = jacobi(b * b + 4 * m * m, p)
    e = quartic_symbol(GaussianInt(b, 2 * m), p).exponent
    if sym == -1:
        e = (e + 1) % 4
    if e == 0:
        return 1
    if e == 2:
        return -1
    raise CongruenceError(
        f"quartic symbol route gives i^{e}, not a real unit, at p={p}"
    )


def delta_p(b: int, m: int, p: int) -> tuple[DeltaP | None, DeltaP]:
    """The unit sign of the quartic-sign displays, both derivations.

    The congruence derivation is None exactly when p = 1 mod 4 and
    (b^2+4m^2|p) = -1: both displays are then plain zero and carry no sign
    information (the zero rows are still asserted)."""
    ctx = Ctx(p)  # refuses a p that is not an odd prime <= TABLE_PRIME_LIMIT
    if (b * m * (b * b + 4 * m * m)) % p == 0:
        raise NotCoprimeError(f"p={p} divides b*m*(b^2+4m^2) for b={b}, m={m}")
    data = delta_solve(b, m, ctx)
    if not data["consistent"]:
        raise CongruenceError(
            f"displays do not determine a unit sign at p={p}: {data}"
        )
    from_symbol = DeltaP(delta_sign_from_symbol(b, m, p), "from-quartic-symbol")
    if data["delta"] is None:
        return None, from_symbol
    return DeltaP(data["delta"], "from-congruence"), from_symbol


def _check_thm_2_11(ctx: Ctx, params) -> Outcome:
    p = ctx.p
    b, m = params["b"], params["m"]
    data = delta_solve(b, m, ctx)
    if not data["consistent"]:
        return Outcome(False, data["lhs"], data["row"], data["rhs"],
                       {"note": "no single unit sign satisfies both displays"})
    try:
        sign = delta_sign_from_symbol(b, m, p)
    except CongruenceError as exc:
        return Outcome(False, data["lhs"], data["row"], data["rhs"], {"note": str(exc)})
    if data["delta"] is not None and data["delta"] != sign:
        return Outcome(False, data["lhs"], data["row"], data["rhs"],
                       {"delta_congruence": data["delta"], "delta_symbol": sign})
    return Outcome(True, data["lhs"], data["row"], data["rhs"], {"delta": sign})


register(Statement(
    id="thm-2.11",
    check=_check_thm_2_11,
    draw={"b": small_signed, "m": small_signed},
    hypothesis=_bm_coprime,
    notes="in the p ≡ 1 (mod 4), (b^2+4m^2|p) = -1 regime both displays vanish and"
          " the congruences leave the sign free; the quartic-symbol value is recorded",
))


def _check_thm_2_12(ctx: Ctx, params) -> Outcome:
    p = ctx.p
    a = params["a"]
    lhs = 2 * ctx.sum_binom(8, 4, ctx.pw(a, 4)) % p
    s1 = ctx.jac(1 - 16 * a * a)
    s2 = ctx.jac(1 + 16 * a * a)
    sym = None
    if s2 == 1:
        c, d = ctx.two_sq()
        sym = _two_sq_symbol(c, d, a, 16 * a * a + 1)
        if sym is None:
            return Outcome(False, lhs, "(c-4ad|16a^2+1)", None, {"c": c, "d": d})
    rhs = ((ctx.jac(1 - 4 * a) if s1 == 1 else 0) + (sym if s2 == 1 else 0)) % p
    return Outcome(lhs == rhs, lhs, f"(1-16a^2|p) = {s1}, (1+16a^2|p) = {s2}", rhs)


def _a_signed(t, p):
    a = t["a"]
    return a * (1 - 16 * a * a) * (1 + 16 * a * a) % p != 0


register(Statement(
    id="thm-2.12",
    applies=Applies(4, (1,)),
    check=_check_thm_2_12,
    draw={"a": small_signed},
    hypothesis=_a_signed,
    notes="the exponent in the sum is a^(4k); the proof display writes a^(2k) but"
          " its own substitution and direct evaluation both give a^(4k)",
))


def _check_cor_2_7(ctx: Ctx, params) -> Outcome:
    p = ctx.p
    lhs = 2 * ctx.sum_binom(8, 4, 1) % p
    s15 = jacobi(p, 15)
    s17 = jacobi(p, 17)
    sym = None
    if s17 == 1:
        c, d = ctx.two_sq()
        sym = _two_sq_symbol(c, d, 1, 17)
        if sym is None:
            return Outcome(False, lhs, "(c-4d|17)", None, {"c": c, "d": d})
    rhs = ((jacobi(p, 3) if s15 == 1 else 0) + (sym if s17 == 1 else 0)) % p
    return Outcome(lhs == rhs, lhs, f"(p|15) = {s15}, (p|17) = {s17}", rhs)


register(Statement(
    id="cor-2.7",
    applies=Applies(4, (1,), exclude=(5, 17)),
    check=_check_cor_2_7,
))


# ------------------------------------------------------ shifted binomials

def _check_lem_2_2(ctx: Ctx, params) -> Outcome:
    ok = binom_shift_lemma_check("L2.2", ctx.p)
    return Outcome(ok, None, "C([p/4]+k, [p/4]-k) = C(4k,2k)/(-64)^k for k <= [p/4]", None)


register(Statement(
    id="lem-2.2",
    check=_check_lem_2_2,
))


def _check_lem_2_3(ctx: Ctx, params) -> Outcome:
    ok = binom_shift_lemma_check("L2.3", ctx.p)
    return Outcome(ok, None, "C((p-1)/2, k) = C(2k,k)/(-4)^k for k <= (p-1)/2", None)


register(Statement(
    id="lem-2.3",
    check=_check_lem_2_3,
))


def _check_lem_2_4(ctx: Ctx, params) -> Outcome:
    p = ctx.p
    for n in range(61):
        u = ctx.uv(1, 1, n)[0]
        want = _sign_pow(n - 1) * jacobi(n, 3) % p
        if u != want:
            return Outcome(False, u, f"U_n(1,1) at n = {n}", want, {"n": n})
    return Outcome(True, None, "U_n(1,1) = (-1)^(n-1) (n|3) for n in [0, 60]", None)


register(Statement(
    id="lem-2.4",
    check=_check_lem_2_4,
))


def _check_lem_2_5(ctx: Ctx, params) -> Outcome:
    p = ctx.p
    P, Q = params["P"], params["Q"]
    c = sqrt_mod(Q, p)
    t = ctx.jac(P - 2 * c)
    u_plus = ctx.uv(P, Q, (p + 1) // 2)[0]
    u_minus = ctx.uv(P, Q, (p - 1) // 2)[0]
    if ctx.jac(P * P - 4 * Q) == 1:
        ok = u_plus == t % p and u_minus == 0
        return Outcome(ok, [u_plus, u_minus], "(P^2-4Q|p) = 1", [t % p, 0], {"c": c})
    rhs = ctx.fr(t, c)
    ok = u_plus == 0 and u_minus == rhs
    return Outcome(ok, [u_plus, u_minus], "(P^2-4Q|p) = -1", [0, rhs], {"c": c})


register(Statement(
    id="lem-2.5",
    applies=Applies(lo=5),
    check=_check_lem_2_5,
    draw={"P": unit, "Q": unit},
    hypothesis=_pq_split,
    notes="stated for all admissible P, Q; checked on seeded samples because the"
          " pair space is quadratic in p; either square root of Q gives the same"
          " rows, so the canonical one is used; no admissible pair exists at p = 3",
))
