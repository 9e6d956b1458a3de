"""Statement registry and verification engine.

Each registered statement couples an applicability predicate over odd
primes, a check routine that evaluates the claimed congruence at one prime
and, for statements over parameter tuples, the tuple hypothesis with a
sampler drawing tuples that satisfy it.  The engine runs statements over
prime ranges, shards the work across processes when asked, and merges
everything back into reports whose JSON form is byte-stable across job
counts and runs.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from math import gcd
from multiprocessing import get_context
from typing import Any, Callable

from ..binomsum import TABLE_PRIME_LIMIT, mod_tables
from ..errors import (
    InvalidParametersError,
    OutOfRangeError,
    RowDispatchViolationError,
    UnknownIdError,
)
from ..lucas import uv_mod
from ..modarith import inv_mod, is_prime, jacobi, sieve_primes
from ..qform import ClassMatch, QuadForm, classify_by_class, represent, two_squares

SAMPLES_PER_PRIME = 20
SAMPLER_RETRIES = 64

PASS = "Pass"
FAIL = "Fail"
NOT_APPLICABLE = "NotApplicable"


class Ctx:
    """Caches shared by every statement checked at one prime."""

    __slots__ = ("p", "tables", "_uv", "_reps", "_classify", "_two_sq")

    def __init__(self, p: int):
        self.p = p
        self.tables = mod_tables(p)
        self._uv: dict[tuple[int, int, int], tuple[int, int]] = {}
        self._reps: dict[QuadForm, tuple[tuple[int, int], ...]] = {}
        self._classify: dict[tuple, ClassMatch] = {}
        self._two_sq: tuple[int, int] | None = None

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
        if upper is None:
            upper = self.p // a
        t = num % self.p * self.inv(den) % self.p
        return self.tables.sum_diag_pow(a, b, t, upper)

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

    def reps(self, form: QuadForm) -> tuple[tuple[int, int], ...]:
        got = self._reps.get(form)
        if got is None:
            got = tuple((r.x, r.y) for r in represent(form, self.p))
            self._reps[form] = got
        return got

    def classify(self, D: int, targets: tuple[QuadForm, ...]) -> ClassMatch:
        key = (D, targets)
        got = self._classify.get(key)
        if got is None:
            got = self._classify[key] = classify_by_class(self.p, D, list(targets))
        return got


@dataclass
class Outcome:
    """What one check produced: a comparison plus enough to replay it."""

    ok: bool
    lhs: Any = None
    row: str | None = None
    rhs: Any = None
    witnesses: dict | None = None


@dataclass(frozen=True)
class Statement:
    id: str
    status: str  # "verified" or "disputed"
    applies: Callable[[int], bool]
    check: Callable[[Ctx, dict | None], Outcome]
    sampler: Callable[[random.Random, int], dict | None] | None = None
    # (params, p) -> whether the tuple satisfies the statement's hypothesis
    hypothesis: Callable[[dict, int], bool] | None = None
    notes: str = ""


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


@dataclass
class Report:
    id: str
    prime_limit: int
    checked: int
    passed: int
    failed: int
    not_applicable: int
    failures: list[dict]
    status: str

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "prime_limit": self.prime_limit,
            "checked": self.checked,
            "passed": self.passed,
            "failed": self.failed,
            "not_applicable": self.not_applicable,
            "failures": self.failures,
            "status": self.status,
        }


REGISTRY: dict[str, Statement] = {}


def register(stmt: Statement) -> Statement:
    if stmt.id in REGISTRY:
        raise ValueError(f"duplicate statement id {stmt.id}")
    if (stmt.sampler is None) != (stmt.hypothesis is None):
        raise ValueError(f"{stmt.id}: a sampler needs a hypothesis and vice versa")
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


def row_check(lhs: Callable[[Ctx], int], table: CaseTable) -> Callable:
    """The check comparing lhs(ctx) with the value of table's row at ctx.p."""

    def check(ctx: Ctx, params) -> Outcome:
        s = lhs(ctx)
        label, rhs = table.at(ctx)
        return Outcome(s == rhs, s, label, rhs)

    return check


def rejection_sampler(draw: Callable, hypothesis: Callable) -> Callable:
    """Sampler returning the first of up to SAMPLER_RETRIES draw(rng, p)
    that hypothesis(params, p) admits, or None when none does."""

    def sampler(rng: random.Random, p: int) -> dict | None:
        for _ in range(SAMPLER_RETRIES):
            params = draw(rng, p)
            if hypothesis(params, p):
                return params
        return None

    return sampler


def _sign_pow(e: int) -> int:
    return -1 if e % 2 else 1


def _failure(p: int, params: dict | None, out: Outcome) -> dict:
    return {
        "prime": p,
        "params": params or {},
        "lhs": out.lhs,
        "row": out.row,
        "rhs": out.rhs,
        "witnesses": out.witnesses or {},
    }


def _admits(stmt: Statement, params: dict, p: int) -> bool:
    """Whether explicit params satisfy stmt's hypothesis at p; raises unless
    they are a dict of integers with every key the hypothesis reads."""
    if stmt.hypothesis is None:
        raise InvalidParametersError(f"{stmt.id} takes no parameters, got {params!r}")
    if isinstance(params, dict) and all(isinstance(v, int) for v in params.values()):
        try:
            return stmt.hypothesis(params, p)
        except KeyError:
            pass
    raise InvalidParametersError(f"{stmt.id}: malformed parameters {params!r}")


def _prime_result(
    stmt: Statement, p: int, seed: int, params: dict | None = None, ctx: Ctx | None = None
):
    """None when stmt is not applicable at p, else (parameters, outcome).

    Explicit params are checked once if the hypothesis admits them.  A
    sampled statement checks up to SAMPLES_PER_PRIME drawn tuples and gives
    the first failing one, or ({"samples": n}, a bare pass); a sampler that
    finds no admissible tuple makes the prime not applicable.  Without a
    shared ctx, the prime's tables are built only once stmt applies.
    """
    if params is not None and not _admits(stmt, params, p):
        return None
    if not stmt.applies(p):
        return None
    if ctx is None:
        ctx = Ctx(p)
    if stmt.sampler is None or params is not None:
        return params, stmt.check(ctx, params)
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
            return drawn, Outcome(False, out.lhs, out.row, out.rhs, out.witnesses or {})
    return ({"samples": SAMPLES_PER_PRIME}, Outcome(True)) if tried else None


def check_statement(
    sid: str, p: int, params: dict | None = None, seed: int = 0
) -> Verdict:
    """Check one statement at one prime; samples parameters unless given
    (given ones outside the statement's hypothesis are NotApplicable)."""
    stmt = _get(sid)
    if p < 3 or p % 2 == 0 or not is_prime(p):
        raise OutOfRangeError(f"p must be an odd prime, got {p}")
    got = _prime_result(stmt, p, seed, params)
    if got is None:
        return Verdict(sid, p, params, NOT_APPLICABLE)
    used, out = got
    return Verdict(
        sid, p, used, PASS if out.ok else FAIL, out.lhs, out.row, out.rhs, out.witnesses
    )


def _sweep(args: tuple) -> dict[str, list]:
    """(p, applicable, failure) rows per id over a run of primes; with
    fail_fast an id stops at its first failure."""
    ids, primes, seed, fail_fast = args
    rows: dict[str, list] = {sid: [] for sid in ids}
    live = list(ids)
    for p in primes:
        if not live:
            break
        ctx = Ctx(p)
        for sid in live:
            got = _prime_result(REGISTRY[sid], p, seed, ctx=ctx)
            failure = None if got is None or got[1].ok else _failure(p, *got)
            rows[sid].append((p, got is not None, failure))
        if fail_fast:
            live = [sid for sid in live if rows[sid][-1][2] is None]
    return rows


def _split(primes: list[int], jobs: int) -> list[list[int]]:
    size = max(8, (len(primes) + jobs * 8 - 1) // (jobs * 8))
    return [primes[i : i + size] for i in range(0, len(primes), size)]


def _build_report(
    sid: str, prime_limit: int, rows: list[tuple], fail_fast: bool
) -> Report:
    checked = passed = failed = na = 0
    failures: list[dict] = []
    for _p, applicable, failure in rows:
        if not applicable:
            na += 1
            continue
        checked += 1
        if failure is None:
            passed += 1
        else:
            failed += 1
            failures.append(failure)
            if fail_fast:
                break
    return Report(
        sid, prime_limit, checked, passed, failed, na, failures, REGISTRY[sid].status
    )


def verify_many(
    ids: list[str],
    prime_limit: int,
    jobs: int = 1,
    seed: int = 0,
    fail_fast: bool = False,
) -> list[Report]:
    """Reports for several ids over all odd primes <= prime_limit.

    Primes run in the outer loop so per-prime tables are shared across
    statements; output is independent of the job count, which is capped at
    the CPU count and the number of chunks.
    """
    for sid in ids:
        _get(sid)
    if prime_limit < 5:
        raise OutOfRangeError(f"prime_limit must be at least 5, got {prime_limit}")
    if prime_limit > TABLE_PRIME_LIMIT:
        raise OutOfRangeError(
            f"prime_limit must be at most {TABLE_PRIME_LIMIT}, got {prime_limit}")
    primes = [q for q in sieve_primes(prime_limit) if q > 2]
    jobs = min(jobs, os.cpu_count() or 1)
    if jobs <= 1 or len(primes) < 16:
        parts = [_sweep((ids, primes, seed, fail_fast))]
    else:
        tasks = [(ids, chunk, seed, fail_fast) for chunk in _split(primes, jobs)]
        with get_context("fork").Pool(min(jobs, len(tasks))) as pool:
            parts = list(pool.imap(_sweep, tasks))
    rows = {sid: [row for part in parts for row in part[sid]] for sid in ids}
    return [_build_report(sid, prime_limit, rows[sid], fail_fast) for sid in ids]


def verify_range(
    sid: str,
    prime_limit: int,
    jobs: int = 1,
    seed: int = 0,
    fail_fast: bool = False,
) -> Report:
    """Report for one id over all odd primes <= prime_limit."""
    return verify_many([sid], prime_limit, jobs=jobs, seed=seed, fail_fast=fail_fast)[0]


def reports_json(reports: list[Report]) -> str:
    """Canonical JSON for a list of reports (stable key order, trailing \\n)."""
    return (
        json.dumps([r.to_dict() for r in reports], indent=2, sort_keys=True) + "\n"
    )


def cubic_roots(c3: int, c1: int, c0: int, p: int) -> set[int]:
    """All residues x with c3 x^3 + c1 x + c0 = 0 mod p, by full scan."""
    if p <= 3:
        raise OutOfRangeError(f"need p > 3, got {p}")
    c3 %= p
    c1 %= p
    c0 %= p
    return {
        x for x in range(p) if (((c3 * x % p) * x + c1) * x + c0) % p == 0
    }
