"""Case tables for truncated sums of C(3k,k) x^k.

Fixed-ratio rows are CaseTables on p mod M; the class-field rows are
chosen by which binary quadratic form class represents p, with ratio
values read off a representation.  The Lucas-side statements compare the
sums against U_n(9b,3a) evaluations.
"""

from __future__ import annotations

from ..binomsum import binom_shift_lemma_check
from ..cyclotomic import EisensteinInt, cubic_symbol
from ..errors import RowDispatchViolationError
from ..modarith import jacobi
from ..qform import QuadForm
from .engine import (
    SAMPLER_RETRIES,
    CaseTable,
    Ctx,
    Outcome,
    Statement,
    cubic_roots,
    register,
)


def _sample_ab(rng, p):
    if p < 3:
        return None
    return {"a": rng.randrange(1, p), "b": rng.randrange(1, p)}


def _sample_ab_split(rng, p):
    # additionally avoid p | 81b^2-12a so the symbol rows are total
    for _ in range(SAMPLER_RETRIES):
        a = rng.randrange(1, p)
        b = rng.randrange(1, p)
        if (81 * b * b - 12 * a) % p:
            return {"a": a, "b": b}
    return None


def _sample_pq_nondeg(rng, p):
    for _ in range(SAMPLER_RETRIES):
        P = rng.randrange(1, p)
        Q = rng.randrange(1, p)
        if (P * P - 4 * Q) % p:
            return {"P": P, "Q": Q}
    return None


def _sample_a_cubic(rng, p):
    # residue a with a(4-27a) a non-residue
    for _ in range(SAMPLER_RETRIES):
        a = rng.randrange(1, p)
        if jacobi(a * (4 - 27 * a) % p, p) == -1:
            return {"a": a}
    return None


# ------------------------------------------------------- form-class rows

def _form_table(ctx: Ctx, lhs, disc, rows, label_prefix=""):
    """Dispatch on the form class representing p; rows are (form, coefs)
    with coefs None for the constant-1 rows and (cx, cy, cden) meaning
    (cx x + cy y) / (cden y) at a representation (x, y)."""
    p = ctx.p
    match = ctx.classify(disc, tuple(QuadForm(*f) for f, _ in rows))
    form, coefs = rows[match.index]
    label = label_prefix + f"p represented by [{form[0]},{form[1]},{form[2]}]"
    reps = [(r.x, r.y) for r in match.representations]
    if coefs is None:
        return Outcome(lhs == 1, lhs, label, 1, {"rep": list(reps[0])})
    cx, cy, cden = coefs
    good = [(x, y) for x, y in reps if y % p]
    if not good:
        return Outcome(False, lhs, label, None,
                       {"reps": reps, "note": "no representation with invertible y"})
    vals = {ctx.fr(cx * x + cy * y, cden * y) for x, y in good}
    if len(vals) != 1:
        return Outcome(False, lhs, label, sorted(vals),
                       {"reps": reps, "note": "value depends on representation"})
    rhs = vals.pop()
    return Outcome(lhs == rhs, lhs, label, rhs, {"rep": list(good[0])})


def _rep_sub_rows(ctx: Ctx, lhs_values, form, rows, label_prefix):
    """Sub-dispatch on a congruence property of the representation; across
    all sign variants exactly one sub-row may fire, and every variant that
    fires it must give the same value."""
    p = ctx.p
    reps = ctx.reps(form)
    if not reps:
        raise RowDispatchViolationError(
            f"at p={p}: {form} has no representation")
    hit = None
    vals = set()
    hits = []
    for x, y in reps:
        for label, pred, val in rows:
            if pred(x, y):
                if hit not in (None, label):
                    raise RowDispatchViolationError(
                        f"at p={p}: representations of {form} match distinct sub-rows")
                hit = label
                vals.add(val(x, y) % p)
                hits.append((x, y))
    if hit is None:
        raise RowDispatchViolationError(
            f"at p={p}: no representation of {form} matches a sub-row")
    label = label_prefix + hit
    if len(vals) != 1:
        return Outcome(False, lhs_values, label, sorted(vals), {"reps": hits})
    rhs = vals.pop()
    lhs_list = lhs_values if isinstance(lhs_values, list) else [lhs_values]
    ok = all(v == rhs for v in lhs_list)
    return Outcome(ok, lhs_values, label, rhs, {"rep": list(hits[0])})


# ----------------------------------------------------------- statements

_TABLE_ZPS = CaseTable(4, (
    ("p ≡ 1 (mod 4)", (1,), lambda ctx: 0),
    ("p ≡ 3 (mod 4)", (3,), lambda ctx: ctx.fr(-12, 5)),
))


def _check_intro_zps(ctx: Ctx, params) -> Outcome:
    p = ctx.p
    s = 0
    pow2 = 1
    for k in range(1, p):
        pow2 = pow2 * 2 % p
        s = (s + pow2 * ctx.tables.binom_general(3 * k, k)) % p
    label, rhs = _TABLE_ZPS.at(ctx)
    return Outcome(s == rhs, s, label, rhs)


register(Statement(
    id="intro-zps",
    status="verified",
    applies=lambda p: p > 5,
    check=_check_intro_zps,
))


_ROWS_3_8 = (
    ((1, 1, 52), None),
    ((8, 7, 8), None),
    ((13, 1, 4), (39, -10, 23)),
    ((29, 5, 2), (-87, -19, 23)),
)


def _check_intro_1_3(ctx: Ctx, params) -> Outcome:
    p = ctx.p
    s = ctx.sum_binom(3, 1, 1)
    if jacobi(p, 23) == -1:
        val = (23 * pow(s, 3, p) + 3 * s + 1) % p
        if val != 0:
            return Outcome(False, s, "(p|23) = -1: 23 S^3 + 3 S + 1 = 0", 0,
                           {"residual": val})
        roots = cubic_roots(23, 3, 1, p)
        return Outcome(roots == {s}, s, "(p|23) = -1: S is the unique root",
                       sorted(roots))
    return _form_table(ctx, s, -207, _ROWS_3_8, "(p|23) = 1: ")


register(Statement(
    id="intro-1.3",
    status="verified",
    applies=lambda p: p > 3 and p != 23 and p not in (13, 29),
    check=_check_intro_1_3,
    notes="p = 13 and p = 29 are the leading coefficients of the ratio-valued"
          " forms, where the representation forces y = 0",
))


def _check_lem_3_1(ctx: Ctx, params) -> Outcome:
    ok = binom_shift_lemma_check("L3.1", ctx.p)
    return Outcome(ok, None, "C([p/3]+k, [p/3]-k) = C(3k,k)/(-27)^k for k <= [p/3]", None)


register(Statement(
    id="lem-3.1",
    status="verified",
    applies=lambda p: p > 3,
    check=_check_lem_3_1,
))


def _check_thm_3_1(ctx: Ctx, params) -> Outcome:
    p = ctx.p
    a, b = params["a"], params["b"]
    lhs = ctx.sum_binom(3, 1, b * b, a)
    rhs = ctx.pw(-3 * a, -(p // 3)) * ctx.uv(9 * b, 3 * a, 2 * (p // 3) + 1)[0] % p
    return Outcome(lhs == rhs, lhs, "transfer to U_{2[p/3]+1}(9b,3a)", rhs)


register(Statement(
    id="thm-3.1",
    status="verified",
    applies=lambda p: p > 3,
    check=_check_thm_3_1,
    sampler=_sample_ab,
))


_TABLE_3_2 = CaseTable(9, (
    ("p ≡ ±1 (mod 9)", (1, 8), lambda ctx: 1),
    ("p ≡ ±2 (mod 9)", (2, 7), lambda ctx: ctx.p - 1),
    ("p ≡ ±4 (mod 9)", (4, 5), lambda ctx: 0),
))


def _check_thm_3_2(ctx: Ctx, params) -> Outcome:
    s = ctx.sum_binom(3, 1, 1, 27)
    label, rhs = _TABLE_3_2.at(ctx)
    return Outcome(s == rhs, s, label, rhs)


register(Statement(
    id="thm-3.2",
    status="verified",
    applies=lambda p: p > 3,
    check=_check_thm_3_2,
))


def _check_lem_3_2(ctx: Ctx, params) -> Outcome:
    p = ctx.p
    P, Q = params["P"], params["Q"]
    n3 = (p - jacobi(p, 3)) // 3
    lhs = ctx.uv(P, Q, 2 * (p // 3) + 1)[0]
    if ctx.jac(P * P - 4 * Q) == 1:
        rhs = -ctx.pw(Q, 1 - n3) * ctx.uv(P, Q, n3 - 1)[0] % p
        label = "(P^2-4Q|p) = 1"
    else:
        rhs = -ctx.pw(Q, -n3) * ctx.uv(P, Q, n3 + 1)[0] % p
        label = "(P^2-4Q|p) = -1"
    return Outcome(lhs == rhs, lhs, label, rhs)


register(Statement(
    id="lem-3.2",
    status="verified",
    applies=lambda p: p > 3,
    check=_check_lem_3_2,
    sampler=_sample_pq_nondeg,
    notes="stated for p coprime to PQ; sampling also avoids p | P^2-4Q, where"
          " neither symbol row fires",
))


def _check_thm_3_3(ctx: Ctx, params) -> Outcome:
    p = ctx.p
    a, b = params["a"], params["b"]
    n3 = (p - jacobi(p, 3)) // 3
    lhs = ctx.sum_binom(3, 1, b * b, a)
    if ctx.jac(81 * b * b - 12 * a) == 1:
        rhs = ctx.pw(-3 * a, p // 3 + 1) * ctx.uv(9 * b, 3 * a, n3 - 1)[0] % p
        label = "(81b^2-12a|p) = 1"
    else:
        rhs = -ctx.pw(-3 * a, p // 3) * ctx.uv(9 * b, 3 * a, n3 + 1)[0] % p
        label = "(81b^2-12a|p) = -1"
    return Outcome(lhs == rhs, lhs, label, rhs)


register(Statement(
    id="thm-3.3",
    status="verified",
    applies=lambda p: p > 3,
    check=_check_thm_3_3,
    sampler=_sample_ab_split,
    notes="stated for p coprime to ab; sampling also avoids p | 81b^2-12a, where"
          " neither symbol row fires",
))


def _check_cor_3_1(ctx: Ctx, params) -> Outcome:
    p = ctx.p
    s = ctx.sum_binom(3, 1, -1, 27)
    n3 = (p - jacobi(p, 3)) // 3
    if jacobi(p, 5) == 1:
        rhs = ctx.uv(1, -1, n3 - 1)[0]
        label = "(p|5) = 1"
    else:
        rhs = -ctx.uv(1, -1, n3 + 1)[0] % p
        label = "(p|5) = -1"
    return Outcome(s == rhs, s, label, rhs)


register(Statement(
    id="cor-3.1",
    status="verified",
    applies=lambda p: p > 5,
    check=_check_cor_3_1,
))


def _mod15_form_rows(ctx: Ctx, lhs_values, ratio_1_15, ratio_5_3):
    """p = x^2+15y^2 when p ≡ 1,4 (mod 15), else p = 5x^2+3y^2; the value is
    1 when 3 | y, and (cx x + cy y) / (cden y) with the form's ratio
    (cx, cy, cden) when 3 | y-x."""
    if ctx.p % 15 in (1, 4):
        form, prefix, ratio = QuadForm(1, 0, 15), "p = x^2+15y^2, ", ratio_1_15
    else:
        form, prefix, ratio = QuadForm(5, 0, 3), "p = 5x^2+3y^2, ", ratio_5_3
    cx, cy, cden = ratio
    rows = [
        ("3 | y", lambda x, y: y % 3 == 0, lambda x, y: 1),
        ("3 | y-x", lambda x, y: (y - x) % 3 == 0,
         lambda x, y: ctx.fr(cx * x + cy * y, cden * y)),
    ]
    return _rep_sub_rows(ctx, lhs_values, form, rows, prefix)


def _check_thm_3_4(ctx: Ctx, params) -> Outcome:
    p = ctx.p
    eps = _TABLE_3_2.at(ctx)[1]
    s6 = (2 * ctx.sum_binom(6, 2, 1, 729) - eps) % p
    s3 = ctx.sum_binom(3, 1, -1, 27)
    return _mod15_form_rows(ctx, [s6, s3], (1, -5, 10), (-1, -1, 2))


register(Statement(
    id="thm-3.4",
    status="verified",
    applies=lambda p: p > 5 and p % 15 in (1, 2, 4, 8),
    check=_check_thm_3_4,
))


def _check_thm_3_5(ctx: Ctx, params) -> Outcome:
    s = ctx.sum_binom(3, 1, 1, 3)
    return _mod15_form_rows(ctx, s, (-3, -5, 10), (3, -1, 2))


register(Statement(
    id="thm-3.5",
    status="verified",
    applies=lambda p: p > 5 and p % 15 in (1, 2, 4, 8),
    check=_check_thm_3_5,
))


_ROWS_3_6 = (
    ((1, 1, 88), None),
    ((10, 7, 10), None),
    ((11, 1, 8), None),
    ((25, 7, 4), (-25, -10, 13)),
    ((43, 37, 10), (43, 12, 13)),
    ((5, 3, 18), (-5, -8, 13)),
    ((47, 5, 2), (-47, -9, 13)),
)


def _check_thm_3_6(ctx: Ctx, params) -> Outcome:
    s = ctx.sum_binom(3, 1, -1, 3)
    return _form_table(ctx, s, -351, _ROWS_3_6)


register(Statement(
    id="thm-3.6",
    status="verified",
    applies=lambda p: p > 3 and jacobi(p, 13) == jacobi(p, 3) != 0
    and p not in (5, 43, 47),
    check=_check_thm_3_6,
))


_ROWS_3_7 = (
    ((1, 1, 64), None),
    ((3, 3, 22), None),
    ((8, 1, 8), None),
    ((5, 5, 14), None),
    ((19, 7, 4), (-171, -74, 85)),
    ((7, 5, 10), (-63, -65, 85)),
    ((35, 5, 2), (-63, -13, 17)),
    ((11, 3, 6), (99, -29, 85)),
)


def _check_thm_3_7(ctx: Ctx, params) -> Outcome:
    s = ctx.sum_binom(3, 1, -3)
    return _form_table(ctx, s, -255, _ROWS_3_7)


register(Statement(
    id="thm-3.7",
    status="verified",
    applies=lambda p: jacobi(p, 255) == 1 and p not in (7, 11, 19),
    check=_check_thm_3_7,
    notes="the 11x^2+3xy+6y^2 row divides by 85y: the variant with 17y fails"
          " at p = 29 (15 vs 3) while 85y matches the Lucas-side derivation"
          " at every bucket prime checked to 4000",
))


def _check_thm_3_8(ctx: Ctx, params) -> Outcome:
    s = ctx.sum_binom(3, 1, 1)
    return _form_table(ctx, s, -207, _ROWS_3_8)


register(Statement(
    id="thm-3.8",
    status="verified",
    applies=lambda p: p > 3 and jacobi(p, 23) == 1 and p not in (13, 29),
    check=_check_thm_3_8,
))


_ROWS_3_9 = (
    ((1, 1, 70), None),
    ((9, 9, 10), None),
    ((8, 3, 9), None),
    ((5, 1, 14), (15, -14, 31)),
    ((7, 1, 10), (21, -14, 31)),
    ((19, 5, 4), (57, -8, 31)),
    ((35, 1, 2), (-105, -17, 31)),
)


def _check_thm_3_9(ctx: Ctx, params) -> Outcome:
    s = ctx.sum_binom(3, 1, -1)
    return _form_table(ctx, s, -279, _ROWS_3_9)


register(Statement(
    id="thm-3.9",
    status="verified",
    applies=lambda p: p > 3 and jacobi(p, 31) == 1 and p not in (5, 7, 19),
    check=_check_thm_3_9,
))


def _check_thm_3_10(ctx: Ctx, params) -> Outcome:
    p = ctx.p
    a = params["a"]
    s = ctx.sum_binom(3, 1, a)
    roots = cubic_roots((27 * a - 4) % p, 3, 1, p)
    return Outcome(roots == {s}, s, "S is the unique root of (27a-4)x^3+3x+1",
                   sorted(roots))


register(Statement(
    id="thm-3.10",
    status="verified",
    applies=lambda p: p > 3,
    check=_check_thm_3_10,
    sampler=_sample_a_cubic,
))


# -------------------------------- Lucas classification at two parameter pairs

_L33_INSTANCES = (
    ("(9,3)", dict(P=9, Q=3, d=69, f=1, k=1, disc=-207, bottom=23,
                   targets=((1, 1, 52), (23, -23, 8), (13, 1, 4), (29, 5, 2)))),
    ("(9,-3)", dict(P=9, Q=-3, d=93, f=1, k=1, disc=-279, bottom=31,
                    targets=((1, 1, 70), (31, -31, 10), (35, 29, 8), (5, 1, 14),
                             (7, 1, 10), (19, 5, 4), (35, 1, 2)))),
)


def _l33_one(ctx: Ctx, name, inst):
    p = ctx.p
    P, Q, d, f, k = inst["P"], inst["Q"], inst["d"], inst["f"], inst["k"]
    match = ctx.classify(inst["disc"], tuple(QuadForm(*t) for t in inst["targets"]))
    a0, b0, c0 = inst["targets"][match.index]
    s = cubic_symbol(EisensteinInt(b0 - 9, -18), a0).exponent
    t3 = jacobi(p, 3)
    n3 = (p - t3) // 3
    u, v = ctx.uv(P, Q, n3)
    base = jacobi(-Q, p) * ctx.pw(-Q, n3 // 2) % p
    label = f"{name}: p represented by [{a0},{b0},{c0}], symbol w^{s}"
    if s == 0:
        if u != 0:
            return Outcome(False, u, label + ", U = 0", 0)
    else:
        if u == 0:
            return Outcome(False, u, label + ", U != 0", None)
        good = [(r.x, r.y) for r in match.representations if r.y % p]
        if good:
            sign = -1 if s == 1 else 1
            vals = {sign * ctx.fr(2 * a0 * x + b0 * y, k * d * f * y) * base % p
                    for x, y in good}
            if len(vals) != 1:
                return Outcome(False, u, label, sorted(vals), {"reps": good})
            want = vals.pop()
            if u != want:
                return Outcome(False, u, label + ", U value", want,
                               {"rep": list(good[0])})
    want_v = (2 if s == 0 else -1) * t3 * base % p
    if v != want_v:
        return Outcome(False, v, label + ", V value", want_v)
    return Outcome(True, [u, v], label)


def _check_lem_3_3(ctx: Ctx, params) -> Outcome:
    outs = []
    for name, inst in _L33_INSTANCES:
        if jacobi(ctx.p, inst["bottom"]) == 1:
            out = _l33_one(ctx, name, inst)
            if not out.ok:
                return out
            outs.append(out)
    return Outcome(True, [o.lhs for o in outs], "; ".join(o.row for o in outs))


register(Statement(
    id="lem-3.3",
    status="verified",
    applies=lambda p: p > 3 and (jacobi(p, 23) == 1 or jacobi(p, 31) == 1),
    check=_check_lem_3_3,
    notes="checked at the two concrete parameter pairs; at primes equal to a"
          " form's leading coefficient the representation has y = 0, so the"
          " ratio row is skipped while the vanishing and V rows still apply",
))
