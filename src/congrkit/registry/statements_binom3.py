"""Case tables for truncated sums of C(3k,k) x^k.

Fixed-ratio rows are CaseTables on p mod M; the class-field rows are
chosen by which binary quadratic form class represents p, with ratio
values read off a representation.  The Lucas-side statements compare the
sums against U_n(9b,3a) evaluations.
"""

from __future__ import annotations

from ..binomsum import binom_shift_lemma_check
from ..cyclotomic import EisensteinInt, cubic_symbol
from ..modarith import jacobi
from ..qform import classify_by_class
from .engine import (
    CaseTable,
    Ctx,
    FormTable,
    Outcome,
    Statement,
    cubic_roots,
    register,
    row_check,
    unit,
)


def _ab_units(t, p):
    return t["a"] * t["b"] % p != 0


# ------------------------------------------------------- form-class rows

def _one(ctx: Ctx, x: int, y: int) -> int:
    return 1


def _ratio(cx: int, cy: int, cden: int):
    """The sub-row value (cx x + cy y) / (cden y)."""
    return lambda ctx, x, y: ctx.fr(cx * x + cy * y, cden * y)


def _class_row(form: tuple[int, int, int], ratio: tuple[int, int, int] | None = None):
    """Row "p represented by form": the value 1, or the ratio at each
    representation with y != 0 (prime to p, as |y| < p for these forms)."""
    label = "p represented by [{},{},{}]".format(*form)
    if ratio is None:
        return form, ((label, lambda x, y: True, _one),)
    return form, ((label, lambda x, y: y != 0, _ratio(*ratio)),)


# ----------------------------------------------------------- statements

_TABLE_ZPS = CaseTable(4, (
    ("p ≡ 1 (mod 4)", (1,), lambda ctx: 0),
    ("p ≡ 3 (mod 4)", (3,), lambda ctx: ctx.fr(-12, 5)),
))


def _zps_sum(ctx: Ctx) -> int:
    # sum of C(3k,k) 2^k for k = 1..p-1.  By Lucas, C(3k,k) = C(3k-qp, k)
    # with q = [3k/p], which is 0 unless q = 0 (k <= [p/3]) or q = 1 and
    # k >= p/2; so the sum is two runs, the second for p/2 < k < 2p/3.
    p = ctx.p
    binom = ctx.tables.binom
    s = ctx.sum_binom(3, 1, 2) - 1
    lo = (p + 1) // 2
    pow2 = pow(2, lo, p)
    for k in range(lo, (2 * p - 1) // 3 + 1):
        s += pow2 * binom(3 * k - p, k)
        pow2 = pow2 * 2 % p
    return s % p


register(Statement(
    id="intro-zps",
    status="verified",
    applies=lambda p: p > 5,
    check=row_check(_zps_sum, _TABLE_ZPS),
))


_ROWS_3_8 = FormTable(-207, (
    _class_row((1, 1, 52)),
    _class_row((8, 7, 8)),
    _class_row((13, 1, 4), (39, -10, 23)),
    _class_row((29, 5, 2), (-87, -19, 23)),
))


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
    return _ROWS_3_8.compare(ctx, s, "(p|23) = 1: ")


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
    draw={"a": unit, "b": unit},
    hypothesis=_ab_units,
))


_TABLE_3_2 = CaseTable(9, (
    ("p ≡ ±1 (mod 9)", (1, 8), lambda ctx: 1),
    ("p ≡ ±2 (mod 9)", (2, 7), lambda ctx: ctx.p - 1),
    ("p ≡ ±4 (mod 9)", (4, 5), lambda ctx: 0),
))


register(Statement(
    id="thm-3.2",
    status="verified",
    applies=lambda p: p > 3,
    check=row_check(lambda ctx: ctx.sum_binom(3, 1, 1, 27), _TABLE_3_2),
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


def _pq_nondeg(t, p):
    # P, Q units and p not dividing P^2-4Q, so a symbol row fires
    P, Q = t["P"], t["Q"]
    return P * Q * (P * P - 4 * Q) % p != 0


register(Statement(
    id="lem-3.2",
    status="verified",
    applies=lambda p: p > 3,
    check=_check_lem_3_2,
    draw={"P": unit, "Q": unit},
    hypothesis=_pq_nondeg,
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


def _ab_split(t, p):
    # a, b units and p not dividing 81b^2-12a, so a symbol row fires
    a, b = t["a"], t["b"]
    return a * b * (81 * b * b - 12 * a) % p != 0


register(Statement(
    id="thm-3.3",
    status="verified",
    applies=lambda p: p > 3,
    check=_check_thm_3_3,
    draw={"a": unit, "b": unit},
    hypothesis=_ab_split,
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


def _mod15_table(ratio_1_15, ratio_5_3) -> FormTable:
    """p = x^2+15y^2 or 5x^2+3y^2, the two classes of H(-60): the value is 1
    when 3 | y, and the form's ratio (cx, cy, cden) when 3 | y-x."""
    return FormTable(-60, tuple(
        (form, ((f"p = {name}, 3 | y", lambda x, y: y % 3 == 0, _one),
                (f"p = {name}, 3 | y-x", lambda x, y: (y - x) % 3 == 0, _ratio(*ratio))))
        for form, name, ratio in (((1, 0, 15), "x^2+15y^2", ratio_1_15),
                                  ((5, 0, 3), "5x^2+3y^2", ratio_5_3))))


_TABLE_3_4 = _mod15_table((1, -5, 10), (-1, -1, 2))
_TABLE_3_5 = _mod15_table((-3, -5, 10), (3, -1, 2))


def _sums_3_4(ctx: Ctx) -> list[int]:
    eps = _TABLE_3_2.at(ctx)[1]
    s6 = (2 * ctx.sum_binom(6, 2, 1, 729) - eps) % ctx.p
    return [s6, ctx.sum_binom(3, 1, -1, 27)]


register(Statement(
    id="thm-3.4",
    status="verified",
    applies=lambda p: p > 5 and p % 15 in (1, 2, 4, 8),
    check=row_check(_sums_3_4, _TABLE_3_4),
))


register(Statement(
    id="thm-3.5",
    status="verified",
    applies=lambda p: p > 5 and p % 15 in (1, 2, 4, 8),
    check=row_check(lambda ctx: ctx.sum_binom(3, 1, 1, 3), _TABLE_3_5),
))


_ROWS_3_6 = FormTable(-351, (
    _class_row((1, 1, 88)),
    _class_row((10, 7, 10)),
    _class_row((11, 1, 8)),
    _class_row((25, 7, 4), (-25, -10, 13)),
    _class_row((43, 37, 10), (43, 12, 13)),
    _class_row((5, 3, 18), (-5, -8, 13)),
    _class_row((47, 5, 2), (-47, -9, 13)),
))


register(Statement(
    id="thm-3.6",
    status="verified",
    applies=lambda p: p > 3 and jacobi(p, 13) == jacobi(p, 3) != 0
    and p not in (5, 43, 47),
    check=row_check(lambda ctx: ctx.sum_binom(3, 1, -1, 3), _ROWS_3_6),
))


_ROWS_3_7 = FormTable(-255, (
    _class_row((1, 1, 64)),
    _class_row((3, 3, 22)),
    _class_row((8, 1, 8)),
    _class_row((5, 5, 14)),
    _class_row((19, 7, 4), (-171, -74, 85)),
    _class_row((7, 5, 10), (-63, -65, 85)),
    _class_row((35, 5, 2), (-63, -13, 17)),
    _class_row((11, 3, 6), (99, -29, 85)),
))


register(Statement(
    id="thm-3.7",
    status="verified",
    applies=lambda p: jacobi(p, 255) == 1 and p not in (7, 11, 19),
    check=row_check(lambda ctx: ctx.sum_binom(3, 1, -3), _ROWS_3_7),
    notes="the 11x^2+3xy+6y^2 row divides by 85y: the variant with 17y fails"
          " at p = 29 (15 vs 3) while 85y matches the Lucas-side derivation"
          " at every bucket prime checked to 4000",
))


register(Statement(
    id="thm-3.8",
    status="verified",
    applies=lambda p: p > 3 and jacobi(p, 23) == 1 and p not in (13, 29),
    check=row_check(lambda ctx: ctx.sum_binom(3, 1, 1), _ROWS_3_8),
))


_ROWS_3_9 = FormTable(-279, (
    _class_row((1, 1, 70)),
    _class_row((9, 9, 10)),
    _class_row((8, 3, 9)),
    _class_row((5, 1, 14), (15, -14, 31)),
    _class_row((7, 1, 10), (21, -14, 31)),
    _class_row((19, 5, 4), (57, -8, 31)),
    _class_row((35, 1, 2), (-105, -17, 31)),
))


register(Statement(
    id="thm-3.9",
    status="verified",
    applies=lambda p: p > 3 and jacobi(p, 31) == 1 and p not in (5, 7, 19),
    check=row_check(lambda ctx: ctx.sum_binom(3, 1, -1), _ROWS_3_9),
))


def _check_thm_3_10(ctx: Ctx, params) -> Outcome:
    p = ctx.p
    a = params["a"]
    s = ctx.sum_binom(3, 1, a)
    roots = cubic_roots((27 * a - 4) % p, 3, 1, p)
    return Outcome(roots == {s}, s, "S is the unique root of (27a-4)x^3+3x+1",
                   sorted(roots))


def _a_cubic(t, p):
    a = t["a"]
    return jacobi(a * (4 - 27 * a) % p, p) == -1


register(Statement(
    id="thm-3.10",
    status="verified",
    applies=lambda p: p > 3,
    check=_check_thm_3_10,
    draw={"a": unit},
    hypothesis=_a_cubic,
))


# -------------------------------- Lucas classification at two parameter pairs

# FormTables for the import check and classification only; U and V are read
# off the matched form, so no row has sub-rows.  The exponent of the cubic
# symbol ((b - 9) - 18w | a) depends only on the form [a, b, c], so it is
# computed here, once per form.
def _l33_instance(P, Q, d, bottom, disc, forms):
    table = FormTable(disc, tuple((form, ()) for form in forms))
    symbols = tuple(cubic_symbol(EisensteinInt(f.b - 9, -18), f.a).exponent
                    for f in table.forms)
    return dict(P=P, Q=Q, d=d, bottom=bottom, table=table, symbols=symbols)


_L33_INSTANCES = (
    ("(9,3)", _l33_instance(9, 3, 69, 23, -207,
                            ((1, 1, 52), (23, -23, 8), (13, 1, 4), (29, 5, 2)))),
    ("(9,-3)", _l33_instance(9, -3, 93, 31, -279,
                             ((1, 1, 70), (31, -31, 10), (35, 29, 8), (5, 1, 14),
                              (7, 1, 10), (19, 5, 4), (35, 1, 2)))),
)


def _l33_one(ctx: Ctx, name, inst):
    p = ctx.p
    P, Q, d, table = inst["P"], inst["Q"], inst["d"], inst["table"]
    match = classify_by_class(p, table.disc, table.forms)
    form = table.forms[match.index]
    s = inst["symbols"][match.index]
    t3 = jacobi(p, 3)
    n3 = (p - t3) // 3
    u, v = ctx.uv(P, Q, n3)
    base = jacobi(-Q, p) * ctx.pw(-Q, n3 // 2) % p
    label = f"{name}: p represented by {form}, symbol w^{s}"
    if s == 0:
        if u != 0:
            return Outcome(False, u, label + ", U = 0", 0)
    else:
        if u == 0:
            return Outcome(False, u, label + ", U != 0", None)
        good = [(x, y) for x, y in match.representations if y % p]
        if good:
            sign = -1 if s == 1 else 1
            vals = {sign * ctx.fr(2 * form.a * x + form.b * y, d * y) * base % p
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
