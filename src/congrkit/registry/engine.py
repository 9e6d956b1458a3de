"""Statement registry and verification engine.

Each registered statement couples an Applies record of the odd primes it
holds at, a check routine that evaluates the claimed congruence at one prime
and, for statements over parameter tuples, one draw per parameter and the
tuple hypothesis; register builds from them the sampler that draws tuples
satisfying it.  The engine runs statements over
prime ranges, shards the work across processes when asked, and merges
everything back into reports whose JSON form is byte-stable across job
counts and runs.
"""

from __future__ import annotations

import gc
import os
import random
from dataclasses import dataclass, replace
from functools import partial
from math import gcd, inf
from typing import Any, Callable

from ..binomsum import (
    LUCAS_SCALES,
    TABLE_PRIME_LIMIT,
    ModTables,
    check_diag,
    lucas_sum,
    mod_tables,
    ring_sum,
    ring_sum_takes,
)
from ..errors import (
    InvalidParametersError,
    OutOfRangeError,
    RowDispatchViolationError,
    UnknownIdError,
)
from ..lucas import uv_mod
from ..modarith import inv_mod, is_prime, jacobi, sieve_primes, sqrt_mod
from ..qform import QuadForm, class_group, class_key, classify_by_class, two_squares
from ..record import FrozenRecord, Record

SAMPLES_PER_PRIME = 20
SAMPLER_RETRIES = 64

PASS = "Pass"
FAIL = "Fail"
NOT_APPLICABLE = "NotApplicable"


class Ctx:
    """Caches shared by every statement checked at one odd prime
    p <= TABLE_PRIME_LIMIT; any other p is refused here.  ctx.tables reads
    the factorial tables from mod_tables, which holds one prime's and builds
    them on first read, so a prime where no check reads them builds none.

    sum_binom takes these sums to the default upper limit [p/a] without
    tables, whatever the caller: C(4k, 2k) and C(3k, k) from lucas_sum,
    C(2bk, bk) for every other b and C(6k, 2k) from ring_sum.  Any other
    diagonal, and any explicit upper limit, reads the prime's tables.
    """

    __slots__ = ("p", "_uv", "_two_sq")

    def __init__(self, p: int):
        if not 3 <= p <= TABLE_PRIME_LIMIT or p % 2 == 0 or not is_prime(p):
            raise OutOfRangeError(
                f"p must be an odd prime at most {TABLE_PRIME_LIMIT}, got {p}")
        self.p = p
        self._uv: dict[tuple[int, int, int], tuple[int, int]] = {}
        self._two_sq: tuple[int, int] | None = None

    @property
    def tables(self) -> ModTables:
        return mod_tables(self.p)

    def inv(self, x: int) -> int:
        return inv_mod(x % self.p, self.p)

    def fr(self, num: int, den: int) -> int:
        """num / den mod p."""
        return num % self.p * self.inv(den) % self.p

    def pw(self, base: int, e: int) -> int:
        if e < 0:
            return pow(self.inv(base), -e, self.p)
        return pow(base % self.p, e, self.p)

    def jac(self, a: int) -> int:
        return jacobi(a, self.p)

    def sum_binom(
        self, a: int, b: int, num: int, den: int = 1, upper: int | None = None
    ) -> int:
        """sum of C(a k, b k) (num/den)^k for k = 0..upper, default [p/a]."""
        m = self.fr(num, den)
        if upper is None:
            if (a, b) in LUCAS_SCALES:
                return lucas_sum(a, b, m, self.p)
            if ring_sum_takes(a, b):
                return ring_sum(a, b, m, self.p)
            upper = self.p // a
        check_diag(a, b, upper, self.p)  # before the O(p) tables are built
        return self.tables.sum_diag_pow(a, b, m, upper)

    def uv(self, P: int, Q: int, n: int) -> tuple[int, int]:
        key = (P % self.p, Q % self.p, n)
        got = self._uv.get(key)
        if got is None:
            got = self._uv[key] = uv_mod(key[0], key[1], n, self.p)
        return got

    def two_sq(self) -> tuple[int, int]:
        if self._two_sq is None:
            self._two_sq = two_squares(self.p)
        return self._two_sq


class Outcome(Record):
    """What one check produced: a comparison plus enough to replay it."""

    __slots__ = ("ok", "lhs", "row", "rhs", "witnesses")

    def __init__(self, ok: bool, lhs: Any = None, row: str | None = None, rhs: Any = None,
                 witnesses: dict | None = None):
        self.ok = ok
        self.lhs = lhs
        self.row = row
        self.rhs = rhs
        self.witnesses = witnesses

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.ok == other.ok and self.lhs == other.lhs and self.row == other.row
                and self.rhs == other.rhs and self.witnesses == other.witnesses)


class Applies(FrozenRecord):
    """The odd primes p a statement holds at: lo <= p <= cap, p mod modulus
    in classes, and p not in exclude.

    Checked when built, so at import: each class is a residue mod modulus
    and holds a prime >= lo (it is a unit, which holds primes by Dirichlet's
    theorem, or is itself such a prime), lo <= cap, and each excluded prime
    is one the record would admit without its exclusions.  Anything else
    raises ValueError.
    """

    __slots__ = ("modulus", "classes", "lo", "cap", "exclude")

    def __init__(self, modulus: int = 1, classes: tuple[int, ...] | frozenset[int] = (0,),
                 lo: int = 3, cap: float = inf, exclude: tuple[int, ...] = ()):
        for r in classes:
            if not 0 <= r < modulus:
                raise ValueError(f"class {r} is not a residue mod {modulus}")
            if gcd(r, modulus) != 1 and not (r >= lo and is_prime(r)):
                raise ValueError(f"class {r} mod {modulus} holds no prime >= {lo}")
        if lo > cap:
            raise ValueError(f"lo = {lo} is above cap = {cap}")
        if exclude:
            whole = Applies(modulus, classes, lo, cap)
            dead = [q for q in exclude if not (is_prime(q) and whole(q))]
            if dead:
                raise ValueError(f"excluded {dead} would not be admitted anyway")
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "classes", classes)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "cap", cap)
        object.__setattr__(self, "exclude", exclude)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.modulus == other.modulus and self.classes == other.classes
                and self.lo == other.lo and self.cap == other.cap
                and self.exclude == other.exclude)

    def __hash__(self) -> int:
        return hash((self.modulus, self.classes, self.lo, self.cap, self.exclude))

    def __call__(self, p: int) -> bool:
        return (self.lo <= p <= self.cap and p % self.modulus in self.classes
                and p not in self.exclude)


@dataclass(frozen=True)
class Statement:
    id: str
    check: Callable[[Ctx, dict | None], Outcome]
    applies: Applies = Applies()  # every odd prime
    status: str = "verified"  # or "disputed"
    sampler: Callable[[random.Random, int], dict | None] | None = None  # set by register
    # (params, p) -> whether the tuple satisfies the statement's hypothesis
    hypothesis: Callable[[dict, int], bool] | None = None
    # parameter name -> draw(rng, p) of its value, in draw order
    draw: dict[str, Callable[[random.Random, int], int]] | None = None
    notes: str = ""

    @property
    def keys(self) -> tuple[str, ...]:
        return tuple(self.draw or ())


@dataclass
class Verdict:
    id: str
    prime: int
    parameters: dict | None
    outcome: str
    lhs: Any = None
    row: str | None = None
    rhs: Any = None
    witnesses: dict | None = None


class Report(Record):
    __slots__ = ("id", "prime_limit", "checked", "passed", "failed", "not_applicable",
                 "failures", "status")

    def __init__(self, id: str, prime_limit: int, checked: int, passed: int, failed: int,
                 not_applicable: int, failures: list[dict], status: str):
        self.id = id
        self.prime_limit = prime_limit
        self.checked = checked
        self.passed = passed
        self.failed = failed
        self.not_applicable = not_applicable
        self.failures = failures
        self.status = status

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.id == other.id and self.prime_limit == other.prime_limit
                and self.checked == other.checked and self.passed == other.passed
                and self.failed == other.failed and self.not_applicable == other.not_applicable
                and self.failures == other.failures and self.status == other.status)


REGISTRY: dict[str, Statement] = {}


def register(stmt: Statement) -> Statement:
    if stmt.id in REGISTRY:
        raise ValueError(f"duplicate statement id {stmt.id}")
    if stmt.sampler or bool(stmt.draw) != bool(stmt.hypothesis):
        raise ValueError(f"{stmt.id}: a draw and a hypothesis go together, not a sampler")
    if not isinstance(stmt.applies, Applies):
        raise ValueError(f"{stmt.id}: applies must be an Applies record")
    if stmt.draw:
        stmt = replace(stmt, sampler=partial(_sample, tuple(stmt.draw.items()), stmt.hypothesis))
    REGISTRY[stmt.id] = stmt
    return stmt


def registered_ids() -> list[str]:
    return sorted(REGISTRY)


def _get(sid: str) -> Statement:
    try:
        return REGISTRY[sid]
    except KeyError:
        raise UnknownIdError(f"no statement registered under id {sid!r}") from None


class CaseTable:
    """Right-hand rows chosen by p mod M, checked to be total when built.

    A row is (label, classes, value) with value a Ctx -> int.  The classes
    of all rows must partition the units mod M exactly; anything else raises
    RowDispatchViolationError here, at import.  By Dirichlet's theorem every
    unit class contains primes, so a table that builds is total at every
    prime not dividing M, and at() is one dict lookup.
    """

    __slots__ = ("modulus", "_by_class")

    def __init__(self, modulus: int, rows: tuple[tuple, ...]):
        self.modulus = modulus
        self._by_class: dict[int, tuple] = {}
        for row in rows:
            label, classes, _value = row
            for r in classes:
                r %= modulus
                if gcd(r, modulus) != 1:
                    raise RowDispatchViolationError(
                        f"mod {modulus}: row {label!r} names the non-unit {r}")
                if r in self._by_class:
                    raise RowDispatchViolationError(
                        f"mod {modulus}: class {r} is in rows "
                        f"{self._by_class[r][0]!r} and {label!r}")
                self._by_class[r] = row
        missing = [r for r in range(modulus)
                   if gcd(r, modulus) == 1 and r not in self._by_class]
        if missing:
            raise RowDispatchViolationError(
                f"mod {modulus}: no row for the units {missing}")

    def at(self, ctx: Ctx) -> tuple[str, int]:
        """(label, value) of the row for ctx.p."""
        row = self._by_class.get(ctx.p % self.modulus)
        if row is None:
            raise RowDispatchViolationError(
                f"mod {self.modulus}: p={ctx.p} divides the modulus")
        return row[0], row[2](ctx)

    def compare(self, ctx: Ctx, lhs: int) -> Outcome:
        """lhs against the value of the row for ctx.p."""
        label, rhs = self.at(ctx)
        return Outcome(lhs == rhs, lhs, label, rhs)


class FormTable:
    """Right-hand rows chosen by the form class representing p, checked to
    be total when built.

    A row is (form, sub_rows), a sub-row (label, fires(x, y), value(ctx, x, y))
    on the representations p = form(x, y).  The forms must name each class of
    class_group(disc) once, up to inversion, or this raises
    RowDispatchViolationError at import; then each prime p with (disc|p) = 1
    is represented by exactly one row (Cox, Primes of the Form x^2 + ny^2, §2-3).
    """

    __slots__ = ("disc", "forms", "_sub_rows")

    def __init__(self, disc: int, rows: tuple[tuple, ...]):
        self.disc = disc
        self.forms = tuple(QuadForm(*form) for form, _sub_rows in rows)
        self._sub_rows = tuple(sub_rows for _form, sub_rows in rows)
        # a class and its inverse have one reduced form with b >= 0 between them
        classes = {class_key(g) for g in class_group(disc) if g.b >= 0}
        seen = set()
        for f in self.forms:
            key = class_key(f) if f.disc == disc else None
            if key in seen or key not in classes:
                raise RowDispatchViolationError(f"disc {disc}: row {f} is no new class")
            seen.add(key)
        if seen != classes:
            missing = ", ".join(sorted(map(str, classes - seen)))
            raise RowDispatchViolationError(f"disc {disc}: no row for the classes {missing}")

    def compare(self, ctx: Ctx, lhs: int | list[int], prefix: str = "") -> Outcome:
        """lhs, or each entry of a list lhs, against the one sub-row that fires
        on p's representations by its row, which must all give the same value."""
        p = ctx.p
        match = classify_by_class(p, self.disc, self.forms)
        form = self.forms[match.index]
        hit = None
        vals = set()
        hits = []
        for x, y in match.representations:
            for label, fires, value in self._sub_rows[match.index]:
                if fires(x, y):
                    if hit not in (None, label):
                        raise RowDispatchViolationError(
                            f"at p={p}: representations of {form} match distinct sub-rows")
                    hit = label
                    vals.add(value(ctx, x, y) % p)
                    hits.append((x, y))
        if hit is None:
            raise RowDispatchViolationError(
                f"at p={p}: no representation of {form} matches a sub-row")
        label = prefix + hit
        if len(vals) != 1:
            return Outcome(False, lhs, label, sorted(vals), {"reps": hits})
        rhs = vals.pop()
        ok = all(v == rhs for v in (lhs if isinstance(lhs, list) else [lhs]))
        return Outcome(ok, lhs, label, rhs, {"rep": list(hits[0])})


def row_check(lhs: Callable[[Ctx], Any], table: CaseTable | FormTable) -> Callable:
    """The check comparing lhs(ctx) with the value table gives at ctx.p."""

    def check(ctx: Ctx, params) -> Outcome:
        return table.compare(ctx, lhs(ctx))

    return check


# Value draws for Statement.draw: draw(rng, p) -> int.
def unit(rng: random.Random, p: int) -> int:
    return rng.randrange(1, p)


def unit_not_one(rng: random.Random, p: int) -> int:
    return rng.randrange(2, p)


def small(rng: random.Random, p: int) -> int:
    return rng.randrange(1, 61)


def small_signed(rng: random.Random, p: int) -> int:
    return rng.choice((1, -1)) * rng.randrange(1, 61)


def _sample(draws: tuple, hypothesis: Callable, rng: random.Random, p: int) -> dict | None:
    """The first of up to SAMPLER_RETRIES tuples, drawn value by value in the
    order of the (name, draw) pairs draws, that hypothesis(params, p) admits,
    or None when none does."""
    for _ in range(SAMPLER_RETRIES):
        params = {}
        for name, draw in draws:  # a loop, as a comprehension costs a frame per tuple
            params[name] = draw(rng, p)
        if hypothesis(params, p):
            return params
    return None


def _sign_pow(e: int) -> int:
    return -1 if e % 2 else 1


def _admits(stmt: Statement, params: dict, p: int) -> bool:
    """Whether explicit params satisfy stmt's hypothesis at p; raises unless
    they are a dict of integers (not bools) keyed by exactly stmt.keys."""
    if stmt.hypothesis is None:
        raise InvalidParametersError(f"{stmt.id} takes no parameters, got {params!r}")
    if (isinstance(params, dict) and set(params) == set(stmt.keys)
            and all(isinstance(v, int) and not isinstance(v, bool) for v in params.values())):
        return stmt.hypothesis(params, p)
    raise InvalidParametersError(
        f"{stmt.id}: malformed parameters {params!r}, want integers {', '.join(stmt.keys)}")


def _verdict(stmt: Statement, ctx: Ctx, seed: int, params: dict | None = None) -> Verdict:
    """stmt's verdict at p = ctx.p.

    Explicit params are checked once if the hypothesis admits them, and are
    NotApplicable otherwise.  A sampled statement checks up to
    SAMPLES_PER_PRIME drawn tuples and gives the first failing one, or a pass
    with parameters {"samples": n}; a sampler that finds no admissible tuple
    makes the prime NotApplicable.  The prime's tables are built only when a
    check first reads ctx.tables.
    """
    p = ctx.p
    if (params is not None and not _admits(stmt, params, p)) or not stmt.applies(p):
        return Verdict(stmt.id, p, params, NOT_APPLICABLE)
    if stmt.sampler is None or params is not None:
        out = stmt.check(ctx, params)
        return Verdict(stmt.id, p, params, PASS if out.ok else FAIL,
                       out.lhs, out.row, out.rhs, out.witnesses)
    rng = random.Random(f"{seed}|{stmt.id}|{p}")
    tried = 0
    for _ in range(SAMPLES_PER_PRIME):
        drawn = stmt.sampler(rng, p)
        if drawn is None:
            continue
        tried += 1
        out = stmt.check(ctx, drawn)
        if not out.ok:
            # a sampled failure always carries a witnesses dict
            return Verdict(stmt.id, p, drawn, FAIL, out.lhs, out.row, out.rhs, out.witnesses or {})
    if tried:
        return Verdict(stmt.id, p, {"samples": SAMPLES_PER_PRIME}, PASS)
    return Verdict(stmt.id, p, None, NOT_APPLICABLE)


def check_statement(
    sid: str, p: int, params: dict | None = None, seed: int = 0
) -> Verdict:
    """Check one statement at one prime; samples parameters unless given
    (given ones outside the statement's hypothesis are NotApplicable).
    Ctx(p) refuses a p that is not an odd prime <= TABLE_PRIME_LIMIT."""
    return _verdict(_get(sid), Ctx(p), seed, params)


def _tally(report: Report, v: Verdict) -> None:
    """Count v into report; a failure is kept as its failure dict."""
    if v.outcome == NOT_APPLICABLE:
        report.not_applicable += 1
        return
    report.checked += 1
    if v.outcome == PASS:
        report.passed += 1
        return
    report.failed += 1
    report.failures.append({"prime": v.prime, "params": v.parameters or {}, "lhs": v.lhs,
                            "row": v.row, "rhs": v.rhs, "witnesses": v.witnesses or {}})


def _sweep(args: tuple) -> dict[str, Report]:
    """Each id's Report over an ascending run of primes, tallied one verdict
    at a time; with fail_fast an id stops at its first failure."""
    ids, primes, prime_limit, seed, fail_fast = args
    reports = {sid: Report(sid, prime_limit, 0, 0, 0, 0, [], REGISTRY[sid].status)
               for sid in ids}
    live = list(ids)
    for p in primes:
        if not live:
            break
        ctx = Ctx(p)
        for sid in live:
            _tally(reports[sid], _verdict(REGISTRY[sid], ctx, seed))
        if fail_fast:
            live = [sid for sid in live if not reports[sid].failed]
    return reports


def _split(primes: list[int], jobs: int) -> list[list[int]]:
    size = max(8, (len(primes) + jobs * 8 - 1) // (jobs * 8))
    return [primes[i : i + size] for i in range(0, len(primes), size)]


def verify_many(
    ids: list[str],
    prime_limit: int,
    jobs: int = 1,
    seed: int = 0,
    fail_fast: bool = False,
) -> list[Report]:
    """Reports for several ids over all odd primes <= prime_limit.

    Primes run in the outer loop so per-prime tables are shared across
    statements; output is independent of the job count, which must be at
    least 1 and is capped at the CPU count and the number of chunks.
    """
    ids = list(dict.fromkeys(ids))  # a repeated id is checked and reported once
    for sid in ids:
        _get(sid)
    if prime_limit < 5:
        raise OutOfRangeError(f"prime_limit must be at least 5, got {prime_limit}")
    if prime_limit > TABLE_PRIME_LIMIT:
        raise OutOfRangeError(
            f"prime_limit must be at most {TABLE_PRIME_LIMIT}, got {prime_limit}")
    if jobs < 1:
        raise OutOfRangeError(f"jobs must be at least 1, got {jobs}")
    primes = [q for q in sieve_primes(prime_limit) if q > 2]
    jobs = min(jobs, os.cpu_count() or 1)
    if jobs <= 1 or len(primes) < 16:
        parts = [_sweep((ids, primes, prime_limit, seed, fail_fast))]
    else:
        from multiprocessing import get_context  # only here: a serial run skips its import

        tasks = [(ids, chunk, prime_limit, seed, fail_fast) for chunk in _split(primes, jobs)]
        # Each worker freezes what it inherits by fork: a full collection due
        # in it (its collector counts are this process's) would otherwise
        # write to every inherited object and so copy the whole heap.
        with get_context("fork").Pool(min(jobs, len(tasks)), initializer=gc.freeze) as pool:
            # the last chunks hold the largest primes and cost the most:
            # hand them out first so no worker is left with one at the end
            parts = list(pool.imap(_sweep, tasks[::-1]))[::-1]
    totals = parts[0]
    for part in parts[1:]:  # in prime order
        for sid, r in part.items():
            t = totals[sid]
            if fail_fast and t.failed:
                continue  # the id stopped at its first failure
            t.checked += r.checked
            t.passed += r.passed
            t.failed += r.failed
            t.not_applicable += r.not_applicable
            t.failures += r.failures
    return [totals[sid] for sid in ids]


def reports_json(reports: list[Report]) -> str:
    """Canonical JSON for a list of reports (stable key order, trailing \\n)."""
    import json  # only here: importing the registry skips it

    rows = [{"id": r.id, "prime_limit": r.prime_limit, "checked": r.checked,
             "passed": r.passed, "failed": r.failed, "not_applicable": r.not_applicable,
             "failures": r.failures, "status": r.status} for r in reports]
    return json.dumps(rows, indent=2, sort_keys=True) + "\n"


def cubic_roots(c3: int, c1: int, c0: int, p: int) -> set[int]:
    """All residues x with c3 x^3 + c1 x + c0 = 0 mod the prime p > 3.

    With f made monic, the distinct roots of f are those of
    g = gcd(f, x^p - x), which is split by degree: a linear g is read off, a
    quadratic one is solved with sqrt_mod, and a cubic one is cut by
    gcd(g, (x + d)^((p-1)/2) - 1) for d = 0, 1, 2, ... (Cantor-Zassenhaus).
    c3 = 0 gives the linear or constant case; the zero polynomial has every
    residue as a root and is refused for p > TABLE_PRIME_LIMIT: at p = 1999993
    that set peaks at 153 MB RSS, 134 MB above the bare import.
    """
    if p <= 3 or not is_prime(p):
        raise OutOfRangeError(f"need a prime p > 3, got {p}")
    c3 %= p
    c1 %= p
    c0 %= p
    if c3 == 0:
        if c1:
            return {-c0 * inv_mod(c1, p) % p}
        if c0 == 0 and p > TABLE_PRIME_LIMIT:
            raise OutOfRangeError(f"the zero polynomial needs p <= {TABLE_PRIME_LIMIT}, got {p}")
        return set(range(p)) if c0 == 0 else set()
    inv = inv_mod(c3, p)
    A, B = c1 * inv % p, c0 * inv % p
    u0, u1, u2 = _x_plus_d_pow(0, p, A, B, p)
    return _roots_of(_poly_gcd([B, A, 0, 1], [u0, u1 - 1, u2], p), p)


def _x_plus_d_pow(d: int, e: int, A: int, B: int, p: int) -> tuple[int, int, int]:
    """(x + d)^e mod (x^3 + A x + B, p) as (u0, u1, u2) = u0 + u1 x + u2 x^2,
    left to right over the bits of e >= 1: square, then multiply by x + d on
    a set bit, reducing with x^3 = -A x - B."""
    u0, u1, u2 = d, 1, 0
    for bit in bin(e)[3:]:
        c3, c4 = 2 * u1 * u2, u2 * u2
        u0, u1, u2 = (
            (u0 * u0 - B * c3) % p,
            (2 * u0 * u1 - A * c3 - B * c4) % p,
            (u1 * u1 + 2 * u0 * u2 - A * c4) % p,
        )
        if bit == "1":
            u0, u1, u2 = (d * u0 - B * u2) % p, (u0 + d * u1 - A * u2) % p, (u1 + d * u2) % p
    return u0, u1, u2


def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_divmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by b in F_p[x]: coefficients low to high,
    reduced mod p, without trailing zeros."""
    a = list(a)
    inv = inv_mod(b[-1], p)
    q = [0] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b):
        shift = len(a) - len(b)
        t = q[shift] = a[-1] * inv % p
        for i, c in enumerate(b):
            a[shift + i] = (a[shift + i] - t * c) % p
        _trim(a)
    return q, a


def _poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd of a and b in F_p[x], a not zero."""
    a, b = _trim([c % p for c in a]), _trim([c % p for c in b])
    while b:
        a, b = b, _poly_divmod(a, b, p)[1]
    inv = inv_mod(a[-1], p)
    return [c * inv % p for c in a]


def _roots_of(g: list[int], p: int) -> set[int]:
    """Roots of a monic squarefree g of degree <= 3 that splits into linear
    factors over F_p; a cubic g has no x^2 term."""
    if len(g) == 1:
        return set()
    if len(g) == 2:
        return {-g[0] % p}
    if len(g) == 3:
        b, c = g[1], g[0]
        s = sqrt_mod(b * b - 4 * c, p)
        half = (p + 1) // 2
        return {(-b + s) * half % p, (-b - s) * half % p}
    # g = x^3 + A x + B with roots r.  d fails to split g only when the
    # symbols (r + d | p) agree or some r + d is 0; as the sum over d of
    # ((r + d)(r' + d) | p) is -1 for r != r', that is at most
    # (p - 3)/4 + 3 < p values of d.
    B, A = g[0], g[1]
    e = (p - 1) // 2
    d = 0
    while True:
        u0, u1, u2 = _x_plus_d_pow(d, e, A, B, p)
        h = _poly_gcd(g, [u0 - 1, u1, u2], p)
        if 1 < len(h) < 4:
            return _roots_of(h, p) | _roots_of(_poly_divmod(g, h, p)[0], p)
        d += 1
