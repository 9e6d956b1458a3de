"""Case tables for truncated sums of C(4k,2k) x^k and C(8k,4k) x^k.

Each register() call pairs an applicability predicate with a check that
evaluates the sum at one prime and dispatches the matching right-hand row.
Parameterized statements carry a sampler; the engine draws 20 seeded
tuples per prime.
"""

from __future__ import annotations

from math import gcd

from ..binomsum import binom_shift_lemma_check
from ..errors import CongruenceError, RowDispatchViolationError
from ..modarith import jacobi, sqrt_mod
from ..qform import QuadForm
from .engine import (
    SAMPLER_RETRIES,
    Ctx,
    Outcome,
    Statement,
    _sign_pow,
    delta_sign_from_symbol,
    delta_solve,
    dispatch,
    register,
)


# ---------------------------------------------------------------- samplers

def _sample_unit_pair(rng, p):
    if p < 3:
        return None
    return {"P": rng.randrange(1, p), "Q": rng.randrange(1, p)}


def _sample_x_unit(rng, p):
    if p < 5:
        return None
    return {"x": rng.randrange(2, p)}


def _sample_split_pair(rng, p):
    # P, Q units with p not dividing P^2-4Q and Q a square mod p
    for _ in range(SAMPLER_RETRIES):
        P = rng.randrange(1, p)
        Q = rng.randrange(1, p)
        if (P * P - 4 * Q) % p and jacobi(Q, p) == 1:
            return {"P": P, "Q": Q}
    return None


def _sample_a_16sq(rng, p):
    # integer a with p dividing neither a nor 16a^2+1
    for _ in range(SAMPLER_RETRIES):
        a = rng.randrange(1, 61)
        if a % p and (16 * a * a + 1) % p:
            return {"a": a}
    return None


def _sample_a_unit(rng, p):
    # residue a with 16a^2 - 1 invertible
    for _ in range(SAMPLER_RETRIES):
        a = rng.randrange(1, p)
        if (16 * a * a - 1) % p:
            return {"a": a}
    return None


def _sample_bm(rng, p):
    # coprime integers b, m with p not dividing b m (b^2+4m^2)
    for _ in range(SAMPLER_RETRIES):
        b = rng.choice((1, -1)) * rng.randrange(1, 61)
        m = rng.choice((1, -1)) * rng.randrange(1, 61)
        if gcd(b, m) != 1:
            continue
        if b * m * (b * b + 4 * m * m) % p == 0:
            continue
        return {"b": b, "m": m}
    return None


def _sample_a_signed(rng, p):
    # integer a with p dividing none of a, 1-16a^2, 1+16a^2
    for _ in range(SAMPLER_RETRIES):
        a = rng.choice((1, -1)) * rng.randrange(1, 61)
        if a % p and (1 - 16 * a * a) % p and (1 + 16 * a * a) % p:
            return {"a": a}
    return None


# ------------------------------------------------- alternating sum mod 17

def _check_intro_1_1(ctx: Ctx, params) -> Outcome:
    p = ctx.p
    s = ctx.sum_binom(4, 2, -1)
    t = ctx.pw(17, (p - 3) // 4)
    label, rhs = dispatch("intro-1.1", p, [
        ("p ≡ ±1,±4 (mod 17)", p % 17 in (1, 4, 13, 16), lambda: t),
        ("p ≡ ±2,±8 (mod 17)", p % 17 in (2, 8, 9, 15), lambda: -t % p),
        ("p ≡ ±3,±5 (mod 17)", p % 17 in (3, 5, 12, 14), lambda: 4 * t % p),
        ("p ≡ ±6,±7 (mod 17)", p % 17 in (6, 7, 10, 11), lambda: -4 * t % p),
    ])
    return Outcome(s == rhs, s, label, rhs)


register(Statement(
    id="intro-1.1",
    status="verified",
    applies=lambda p: p % 4 == 3,
    check=_check_intro_1_1,
))


def _check_intro_1_2(ctx: Ctx, params) -> Outcome:
    p = ctx.p
    a = params["a"]
    s = ctx.sum_binom(4, 2, -a * a)
    N = 16 * a * a + 1
    if ctx.jac(N) == -1:
        return Outcome(s == 0, s, "(16a^2+1|p) = -1", 0)
    c, d = ctx.two_sq()
    vals = {jacobi(sc * c - 4 * a * sd * d, N) for sc in (1, -1) for sd in (1, -1)}
    if len(vals) != 1:
        return Outcome(False, s, "(16a^2+1|p) = 1", sorted(vals),
                       {"c": c, "d": d, "note": "symbol depends on sign choice"})
    rhs = vals.pop() % p
    return Outcome(s == rhs, s, "(16a^2+1|p) = 1", rhs, {"c": c, "d": d})


register(Statement(
    id="intro-1.2",
    status="verified",
    applies=lambda p: p % 4 == 1,
    check=_check_intro_1_2,
    sampler=_sample_a_16sq,
    notes="sampling also skips p | a: the underlying two-squares row needs p coprime to 8a",
))


# -------------------------------------------------------- fixed-ratio rows

def _check_cor_2_1(ctx: Ctx, params) -> Outcome:
    p = ctx.p
    s1 = ctx.sum_binom(4, 2, 1, 16)
    r1 = ctx.fr(ctx.jac(2), 2)
    if s1 != r1:
        return Outcome(False, s1, "ratio 1/16", r1)
    s2 = ctx.sum_binom(4, 2, 1, 4)
    label2, r2 = dispatch("cor-2.1", p, [
        ("ratio 1/4: p ≡ 1 (mod 3)", p % 3 == 1, lambda: _sign_pow((p - 1) // 2) % p),
        ("ratio 1/4: p ≡ 2 (mod 3)", p % 3 == 2, lambda: 0),
    ])
    if s2 != r2:
        return Outcome(False, s2, label2, r2)
    s3 = ctx.sum_binom(4, 2, 1, 64)
    label3, r3 = dispatch("cor-2.1", p, [
        ("ratio 1/64: p ≡ 5,7,17,19 (mod 24)", p % 24 in (5, 7, 17, 19), lambda: 0),
        ("ratio 1/64: p ≡ 1,23 (mod 24)", p % 24 in (1, 23), lambda: 1),
        ("ratio 1/64: p ≡ 11,13 (mod 24)", p % 24 in (11, 13), lambda: p - 1),
    ])
    return Outcome(s3 == r3, s3, label3, r3)


register(Statement(
    id="cor-2.1",
    status="verified",
    applies=lambda p: p >= 5,
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
    status="verified",
    applies=lambda p: p >= 3,
    check=_check_thm_2_1,
    sampler=_sample_unit_pair,
))


def _check_thm_2_2_i(ctx: Ctx, params) -> Outcome:
    p = ctx.p
    x = params["x"]
    lhs = ctx.sum_binom(4, 2, x, 16)
    rhs = ctx.pw(x, (p - 1) // 4) * ctx.sum_binom(4, 2, 1, 16 * x) % p
    return Outcome(lhs == rhs, lhs, "x^((p-1)/4) transfer", rhs)


register(Statement(
    id="thm-2.2-i",
    status="verified",
    applies=lambda p: p % 4 == 1,
    check=_check_thm_2_2_i,
    sampler=_sample_x_unit,
))


def _check_thm_2_2_ii(ctx: Ctx, params) -> Outcome:
    p = ctx.p
    x = params["x"]
    lhs = ctx.sum_binom(4, 2, 1, 16 * x)
    t = (1 - ctx.inv(x)) % p
    rhs = ctx.pw(t, (p - 3) // 4) * ctx.sum_binom(4, 2, 1, 16 * (1 - x)) % p
    return Outcome(lhs == rhs, lhs, "(1-1/x)^((p-3)/4) transfer", rhs)


register(Statement(
    id="thm-2.2-ii",
    status="verified",
    applies=lambda p: p % 4 == 3,
    check=_check_thm_2_2_ii,
    sampler=_sample_x_unit,
))


def _check_cor_2_2_8k7(ctx: Ctx, params) -> Outcome:
    s = ctx.sum_binom(4, 2, 1, 8)
    return Outcome(s == 0, s, "always", 0)


register(Statement(
    id="cor-2.2-8k7",
    status="verified",
    applies=lambda p: p % 8 == 7,
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
    status="verified",
    applies=lambda p: p >= 5,
    check=_check_thm_2_3,
    sampler=_sample_split_pair,
    notes="conditional vanishing rows; both hypotheses can fail, in which case the"
          " draw is vacuously true; no admissible pair exists at p = 3",
))


def _check_thm_2_4(ctx: Ctx, params) -> Outcome:
    p = ctx.p
    s = ctx.sum_binom(4, 2, -1, 16)
    label, rhs = dispatch("thm-2.4", p, [
        ("p ≡ 1 (mod 8)", p % 8 == 1,
         lambda: _sign_pow((p - 1) // 8) * ctx.pw(2, (p - 1) // 4) % p),
        ("p ≡ 3 (mod 8)", p % 8 == 3,
         lambda: _sign_pow((p - 3) // 8) * ctx.pw(2, (p - 3) // 4) % p),
        ("p ≡ 5 (mod 8)", p % 8 == 5, lambda: 0),
        ("p ≡ 7 (mod 8)", p % 8 == 7,
         lambda: _sign_pow((p + 1) // 8) * ctx.pw(2, (p - 3) // 4) % p),
    ])
    return Outcome(s == rhs, s, label, rhs)


register(Statement(
    id="thm-2.4",
    status="verified",
    applies=lambda p: p > 5,
    check=_check_thm_2_4,
))


def _check_thm_2_5(ctx: Ctx, params) -> Outcome:
    p = ctx.p
    sign = _sign_pow((p + 5) // 10)
    s1 = ctx.sum_binom(4, 2, -1, 64)
    label1, r1 = dispatch("thm-2.5", p, [
        ("ratio -1/64: p ≡ 1,3,7,9 (mod 20)", p % 20 in (1, 3, 7, 9),
         lambda: sign * ctx.pw(5, p // 4) % p),
        ("ratio -1/64: p ≡ 11,19 (mod 20)", p % 20 in (11, 19),
         lambda: 2 * sign * ctx.pw(5, (p - 3) // 4) % p),
        ("ratio -1/64: p ≡ 13,17 (mod 20)", p % 20 in (13, 17), lambda: 0),
    ])
    if s1 != r1:
        return Outcome(False, s1, label1, r1)
    s2 = ctx.sum_binom(4, 2, -1, 4)
    label2, r2 = dispatch("thm-2.5", p, [
        ("ratio -1/4: p ≡ 1,9,11,19 (mod 20)", p % 20 in (1, 9, 11, 19),
         lambda: sign * ctx.pw(5, p // 4) % p),
        ("ratio -1/4: p ≡ 3,7 (mod 20)", p % 20 in (3, 7),
         lambda: -2 * sign * ctx.pw(5, (p - 3) // 4) % p),
        ("ratio -1/4: p ≡ 13,17 (mod 20)", p % 20 in (13, 17), lambda: 0),
    ])
    return Outcome(s2 == r2, s2, label2, r2)


register(Statement(
    id="thm-2.5",
    status="verified",
    applies=lambda p: p > 5,
    check=_check_thm_2_5,
))


def _check_thm_2_6(ctx: Ctx, params) -> Outcome:
    p = ctx.p
    s = ctx.sum_binom(4, 2, -1)
    r = p % 17
    if p % 4 == 1:
        t = ctx.pw(17, (p - 1) // 4)
        rows = [
            ("p ≡ ±3,±5,±6,±7 (mod 17)", r in (3, 5, 6, 7, 10, 11, 12, 14), lambda: 0),
            ("p ≡ ±1,±4 (mod 17)", r in (1, 4, 13, 16), lambda: t),
            ("p ≡ ±2,±8 (mod 17)", r in (2, 8, 9, 15), lambda: -t % p),
        ]
    else:
        t = ctx.pw(17, (p - 3) // 4)
        rows = [
            ("p ≡ ±1,±4 (mod 17)", r in (1, 4, 13, 16), lambda: t),
            ("p ≡ ±2,±8 (mod 17)", r in (2, 8, 9, 15), lambda: -t % p),
            ("p ≡ ±3,±5 (mod 17)", r in (3, 5, 12, 14), lambda: 4 * t % p),
            ("p ≡ ±6,±7 (mod 17)", r in (6, 7, 10, 11), lambda: -4 * t % p),
        ]
    label, rhs = dispatch("thm-2.6", p, rows)
    return Outcome(s == rhs, s, label, rhs)


register(Statement(
    id="thm-2.6",
    status="verified",
    applies=lambda p: p != 17,
    check=_check_thm_2_6,
))


_ROWS_2_7 = (
    ("p ≡ 1,9,29 (mod 52)", (1, 9, 29), 1, 1),
    ("p ≡ 17,25,49 (mod 52)", (17, 25, 49), 1, -1),
    ("p ≡ 23,43,51 (mod 52)", (23, 43, 51), 3, 3),
    ("p ≡ 3,27,35 (mod 52)", (3, 27, 35), 3, -3),
    ("p ≡ 5,21,33,37,41,45 (mod 52)", (5, 21, 33, 37, 41, 45), 0, 0),
    ("p ≡ 7,11,47 (mod 52)", (7, 11, 47), 3, 2),
    ("p ≡ 15,19,31 (mod 52)", (15, 19, 31), 3, -2),
)


def _check_thm_2_7(ctx: Ctx, params) -> Outcome:
    p = ctx.p
    s = ctx.jac(3) * ctx.sum_binom(4, 2, -1, 36) % p
    r = p % 52

    def value(shift, coef):
        if coef == 0:
            return 0
        return coef * ctx.pw(13, (p - shift) // 4) % p

    rows = [(label, r in classes, lambda shift=shift, coef=coef: value(shift, coef))
            for label, classes, shift, coef in _ROWS_2_7]
    label, rhs = dispatch("thm-2.7", p, rows)
    return Outcome(s == rhs, s, label, rhs)


register(Statement(
    id="thm-2.7",
    status="verified",
    applies=lambda p: p not in (3, 13),
    check=_check_thm_2_7,
))


def _check_thm_2_8(ctx: Ctx, params) -> Outcome:
    p = ctx.p
    s = ctx.sum_binom(4, 2, -1, 144)
    sign3 = _sign_pow(p // 3)
    r = p % 40
    if r in (1, 9, 13, 37):
        even = r in (1, 9)
        form = QuadForm(1, 0, 10) if even else QuadForm(5, 0, 2)
        label = ("p = x^2+10y^2, p ≡ 1,9 (mod 40)" if even
                 else "p = 5x^2+2y^2, p ≡ 13,37 (mod 40)")
        reps = ctx.reps(form)
        if not reps or any(y % 2 for _x, y in reps):
            raise RowDispatchViolationError(
                f"thm-2.8 at p={p}: expected representations with even y, got {reps}")
        vals = {sign3 * _sign_pow(abs(y) // 2) % p for _x, y in reps}
        if len(vals) != 1:
            return Outcome(False, s, label, sorted(vals), {"reps": list(reps)})
        rhs = vals.pop()
        return Outcome(s == rhs, s, label, rhs, {"rep": list(reps[0])})
    form = QuadForm(1, 0, 10)
    label = "p = x^2+10y^2 with 4 | x-y, p ≡ 11,19 (mod 40)"
    good = [(x, y) for x, y in ctx.reps(form) if (x - y) % 4 == 0]
    if not good:
        raise RowDispatchViolationError(
            f"thm-2.8 at p={p}: no representation with 4 | x-y")
    vals = {sign3 * ctx.fr(y, x) % p for x, y in good}
    if len(vals) != 1:
        return Outcome(False, s, label, sorted(vals), {"reps": good})
    rhs = vals.pop()
    return Outcome(s == rhs, s, label, rhs, {"rep": list(good[0])})


register(Statement(
    id="thm-2.8",
    status="verified",
    applies=lambda p: p % 40 in (1, 9, 11, 13, 19, 37),
    check=_check_thm_2_8,
))


def _check_thm_2_9(ctx: Ctx, params) -> Outcome:
    p = ctx.p
    a = params["a"]
    s = ctx.sum_binom(4, 2, a * a)
    if ctx.jac(1 - 16 * a * a) == -1:
        return Outcome(s == 0, s, "(1-16a^2|p) = -1", 0)
    rhs = ctx.jac(1 - 4 * a) % p
    return Outcome(s == rhs, s, "(1-16a^2|p) = 1", rhs)


register(Statement(
    id="thm-2.9",
    status="verified",
    applies=lambda p: p >= 5,
    check=_check_thm_2_9,
    sampler=_sample_a_unit,
    notes="no residue a survives the 16a^2 != 1 filter at p = 3",
))


def _check_cor_2_2_mod15(ctx: Ctx, params) -> Outcome:
    p = ctx.p
    s = ctx.sum_binom(4, 2, 1)
    label, rhs = dispatch("cor-2.2-mod15", p, [
        ("p ≡ 7,11,13,14 (mod 15)", p % 15 in (7, 11, 13, 14), lambda: 0),
        ("p ≡ 1,4 (mod 15)", p % 15 in (1, 4), lambda: 1),
        ("p ≡ 2,8 (mod 15)", p % 15 in (2, 8), lambda: p - 1),
    ])
    return Outcome(s == rhs, s, label, rhs)


register(Statement(
    id="cor-2.2-mod15",
    status="verified",
    applies=lambda p: p > 5,
    check=_check_cor_2_2_mod15,
))


def _check_cor_2_3(ctx: Ctx, params) -> Outcome:
    p = ctx.p
    s = ctx.sum_binom(4, 2, 4)
    label, rhs = dispatch("cor-2.3", p, [
        ("p ≡ 1,2,4 (mod 7)", p % 7 in (1, 2, 4), lambda: 1),
        ("p ≡ 3,5,6 (mod 7)", p % 7 in (3, 5, 6), lambda: 0),
    ])
    return Outcome(s == rhs, s, label, rhs)


register(Statement(
    id="cor-2.3",
    status="verified",
    applies=lambda p: p > 7,
    check=_check_cor_2_3,
))


def _check_cor_2_4(ctx: Ctx, params) -> Outcome:
    p = ctx.p
    s = ctx.sum_binom(4, 2, 1, 4)
    label, rhs = dispatch("cor-2.4", p, [
        ("p ≡ 1 (mod 3)", p % 3 == 1, lambda: _sign_pow((p - 1) // 2) % p),
        ("p ≡ 2 (mod 3)", p % 3 == 2, lambda: 0),
    ])
    return Outcome(s == rhs, s, label, rhs)


register(Statement(
    id="cor-2.4",
    status="verified",
    applies=lambda p: p > 3,
    check=_check_cor_2_4,
))


# ---------------------------------------------- two-squares symbol tables

def _two_sq_symbol(c, d, a, N):
    # (c - 4ad | N) over all four sign choices; None when they disagree
    vals = {jacobi(sc * c - 4 * a * sd * d, N) for sc in (1, -1) for sd in (1, -1)}
    if len(vals) != 1:
        return None
    return vals.pop()


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
    status="verified",
    applies=lambda p: p % 4 == 1,
    check=_check_thm_2_10,
    sampler=_sample_bm,
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
    status="verified",
    applies=lambda p: p % 4 == 1 and p % 17 in (1, 2, 4, 8, 9, 13, 15, 16),
    check=_check_cor_2_5,
))


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
    status="verified",
    applies=lambda p: p >= 3,
    check=_check_thm_2_11,
    sampler=_sample_bm,
    notes="in the p ≡ 1 (mod 4), (b^2+4m^2|p) = -1 regime both displays vanish and"
          " the congruences leave the sign free; the quartic-symbol value is recorded",
))


def _check_thm_2_12(ctx: Ctx, params) -> Outcome:
    p = ctx.p
    a = params["a"]
    lhs = 2 * ctx.sum_binom(8, 4, ctx.pw(a, 4), upper=p // 8) % p
    s1 = ctx.jac(1 - 16 * a * a)
    s2 = ctx.jac(1 + 16 * a * a)
    sym = None
    if s2 == 1:
        c, d = ctx.two_sq()
        sym = _two_sq_symbol(c, d, a, 16 * a * a + 1)
        if sym is None:
            return Outcome(False, lhs, "(c-4ad|16a^2+1)", None, {"c": c, "d": d})
    label, rhs = dispatch("thm-2.12", p, [
        ("(1-16a^2|p) = 1, (1+16a^2|p) = 1", s1 == 1 and s2 == 1,
         lambda: (ctx.jac(1 - 4 * a) + sym) % p),
        ("(1-16a^2|p) = 1, (1+16a^2|p) = -1", s1 == 1 and s2 == -1,
         lambda: ctx.jac(1 - 4 * a) % p),
        ("(1-16a^2|p) = -1, (1+16a^2|p) = 1", s1 == -1 and s2 == 1,
         lambda: sym % p),
        ("(1-16a^2|p) = -1, (1+16a^2|p) = -1", s1 == -1 and s2 == -1,
         lambda: 0),
    ])
    return Outcome(lhs == rhs, lhs, label, rhs)


register(Statement(
    id="thm-2.12",
    status="verified",
    applies=lambda p: p % 4 == 1,
    check=_check_thm_2_12,
    sampler=_sample_a_signed,
    notes="the exponent in the sum is a^(4k); the proof display writes a^(2k) but"
          " its own substitution and direct evaluation both give a^(4k)",
))


def _check_cor_2_7(ctx: Ctx, params) -> Outcome:
    p = ctx.p
    lhs = 2 * ctx.sum_binom(8, 4, 1, upper=p // 8) % p
    s15 = jacobi(p, 15)
    s17 = jacobi(p, 17)
    sym = None
    if s17 == 1:
        c, d = ctx.two_sq()
        sym = _two_sq_symbol(c, d, 1, 17)
        if sym is None:
            return Outcome(False, lhs, "(c-4d|17)", None, {"c": c, "d": d})
    label, rhs = dispatch("cor-2.7", p, [
        ("(p|15) = 1, (p|17) = 1", s15 == 1 and s17 == 1,
         lambda: (jacobi(p, 3) + sym) % p),
        ("(p|15) = 1, (p|17) = -1", s15 == 1 and s17 == -1,
         lambda: jacobi(p, 3) % p),
        ("(p|15) = -1, (p|17) = 1", s15 == -1 and s17 == 1,
         lambda: sym % p),
        ("(p|15) = -1, (p|17) = -1", s15 == -1 and s17 == -1,
         lambda: 0),
    ])
    return Outcome(lhs == rhs, lhs, label, rhs)


register(Statement(
    id="cor-2.7",
    status="verified",
    applies=lambda p: p % 4 == 1 and p not in (5, 17),
    check=_check_cor_2_7,
))


# ------------------------------------------------------ shifted binomials

def _check_lem_2_2(ctx: Ctx, params) -> Outcome:
    ok = binom_shift_lemma_check("L2.2", ctx.p)
    return Outcome(ok, None, "C([p/4]+k, [p/4]-k) = C(4k,2k)/(-64)^k for k <= [p/4]", None)


register(Statement(
    id="lem-2.2",
    status="verified",
    applies=lambda p: p >= 3,
    check=_check_lem_2_2,
))


def _check_lem_2_3(ctx: Ctx, params) -> Outcome:
    ok = binom_shift_lemma_check("L2.3", ctx.p)
    return Outcome(ok, None, "C((p-1)/2, k) = C(2k,k)/(-4)^k for k <= (p-1)/2", None)


register(Statement(
    id="lem-2.3",
    status="verified",
    applies=lambda p: p >= 3,
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
    status="verified",
    applies=lambda p: p >= 3,
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
    status="verified",
    applies=lambda p: p >= 5,
    check=_check_lem_2_5,
    sampler=_sample_split_pair,
    notes="stated for all admissible P, Q; checked on seeded samples because the"
          " pair space is quadratic in p; either square root of Q gives the same"
          " rows, so the canonical one is used; no admissible pair exists at p = 3",
))
