"""Command-line front end: compute one value or verify statement ranges."""

from __future__ import annotations

import argparse
import sys

from .binomsum import mod_tables
from .combsum import TSumKey, t_sum_exact
from .cyclotomic import EisensteinInt, GaussianInt, cubic_symbol, quartic_symbol
from .errors import CongruenceError, OutOfRangeError
from .lucas import uv_mod
from .modarith import inv_mod, is_prime, jacobi, sieve_primes
from .qform import QuadForm, class_group, represent
from .registry import registered_ids, reports_json, verify_many


def _require_prime(p: int) -> int:
    if p < 3 or not is_prime(p):
        raise CongruenceError(f"{p} is not an odd prime")
    return p


def _parse_pair(text: str, what: str) -> tuple[int, int]:
    try:
        nums = [int(t) for t in text.split(",")]
    except ValueError:
        nums = []
    if not 1 <= len(nums) <= 2:
        raise CongruenceError(f"{what} must be integers 'a' or 'a,b', got {text!r}")
    return nums[0], nums[1] if len(nums) == 2 else 0


def cmd_verify(args) -> int:
    if args.id:
        ids = args.id
    elif args.all:
        ids = registered_ids()
    else:
        print("error: pass --id or --all", file=sys.stderr)
        return 2
    reports = verify_many(ids, args.max_prime, jobs=args.jobs, seed=args.seed,
                          fail_fast=args.fail_fast)
    if args.format == "json":
        sys.stdout.write(reports_json(reports))
    else:
        for r in reports:
            print(f"{r.id:16s} {r.status:9s} checked={r.checked} "
                  f"passed={r.passed} failed={r.failed} na={r.not_applicable}")
            for f in r.failures:
                print(f"  FAIL p={f['prime']} row={f['row']!r} "
                      f"lhs={f['lhs']} rhs={f['rhs']}"
                      + (f" params={f['params']}" if f["params"] else ""))
    bad = any(r.failed and r.status != "disputed" for r in reports)
    if args.strict:
        bad = bad or any(r.failed for r in reports)
    return 1 if bad else 0


def cmd_compute_sum(args) -> int:
    p = _require_prime(args.prime)
    if args.den % p == 0:
        raise CongruenceError(f"denominator {args.den} vanishes mod {p}")
    a, b = args.a, args.b
    if a <= 0 or not 0 <= b <= a:
        raise OutOfRangeError(f"need 0 <= b <= a with a > 0, got a={a} b={b}")
    upper = args.upper if args.upper is not None else p // a
    if upper < 0:
        raise OutOfRangeError(f"upper limit must be non-negative, got {upper}")
    ratio = args.num * inv_mod(args.den, p) % p
    print(mod_tables(p).sum_diag_pow(a, b, ratio, upper))
    return 0


def cmd_compute_symbol(args) -> int:
    if args.kind == "jacobi":
        top, extra = _parse_pair(args.top, "--top")
        if extra:
            raise CongruenceError("jacobi takes an integer --top")
        print(jacobi(top, args.bottom))
    elif args.kind == "cubic":
        a, b = _parse_pair(args.top, "--top")
        print(f"w^{cubic_symbol(EisensteinInt(a, b), args.bottom).exponent}")
    else:
        a, b = _parse_pair(args.top, "--top")
        p = _require_prime(args.bottom)
        print(f"i^{quartic_symbol(GaussianInt(a, b), p).exponent}")
    return 0


def cmd_compute_lucas(args) -> int:
    p = _require_prime(args.prime)
    u, v = uv_mod(args.P, args.Q, args.n, p)
    print(f"U={u} V={v}")
    return 0


def cmd_compute_tsum(args) -> int:
    print(t_sum_exact(TSumKey(args.n, args.m, args.r)))
    return 0


def cmd_represent(args) -> int:
    try:
        a, b, c = (int(t) for t in args.form.split(","))
    except ValueError:
        raise CongruenceError(f"--form must be integers 'a,b,c', got {args.form!r}") from None
    p = _require_prime(args.prime)
    print(" ".join(f"({x},{y})" for x, y in represent(QuadForm(a, b, c), p)))
    return 0


def cmd_classgroup(args) -> int:
    for f in sorted(class_group(args.disc), key=lambda f: (f.a, f.b, f.c)):
        print(f)
    return 0


def cmd_primes(args) -> int:
    for p in sieve_primes(args.limit):
        print(p)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="congrkit")
    sub = top.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="check registered statements over a prime range")
    v.add_argument("--id", action="append", help="statement id (repeatable)")
    v.add_argument("--all", action="store_true", help="verify every registered id")
    v.add_argument("--max-prime", type=int, default=1000)
    v.add_argument("--jobs", type=int, default=1)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--format", choices=("text", "json"), default="text")
    v.add_argument("--fail-fast", action="store_true")
    v.add_argument("--strict", action="store_true",
                   help="disputed failures also set the exit code")
    v.set_defaults(func=cmd_verify)

    c = sub.add_parser("compute", help="evaluate one quantity")
    csub = c.add_subparsers(dest="subcommand", required=True)

    cs = csub.add_parser("sum", help="truncated sum of C(a k, b k) (num/den)^k mod p")
    cs.add_argument("--a", type=int, required=True)
    cs.add_argument("--b", type=int, required=True)
    cs.add_argument("--num", type=int, required=True)
    cs.add_argument("--den", type=int, default=1)
    cs.add_argument("--prime", type=int, required=True)
    cs.add_argument("--upper", type=int, default=None)
    cs.set_defaults(func=cmd_compute_sum)

    cy = csub.add_parser("symbol", help="jacobi, cubic, or quartic residue symbol")
    cy.add_argument("--kind", choices=("jacobi", "cubic", "quartic"), required=True)
    cy.add_argument("--top", required=True,
                    help="integer, or 'a,b' meaning a+bw (cubic) / a+bi (quartic)")
    cy.add_argument("--bottom", type=int, required=True)
    cy.set_defaults(func=cmd_compute_symbol)

    cl = csub.add_parser("lucas", help="U_n(P,Q), V_n(P,Q) mod p")
    cl.add_argument("--P", type=int, required=True)
    cl.add_argument("--Q", type=int, required=True)
    cl.add_argument("--n", type=int, required=True)
    cl.add_argument("--prime", type=int, required=True)
    cl.set_defaults(func=cmd_compute_lucas)

    ct = csub.add_parser("tsum", help="exact sum of C(n,k) over k = r (mod m)")
    ct.add_argument("--n", type=int, required=True)
    ct.add_argument("--m", type=int, required=True)
    ct.add_argument("--r", type=int, required=True)
    ct.set_defaults(func=cmd_compute_tsum)

    r = sub.add_parser("represent", help="all (x, y) with a x^2+b xy+c y^2 = p")
    r.add_argument("--form", required=True, help="a,b,c")
    r.add_argument("--prime", type=int, required=True)
    r.set_defaults(func=cmd_represent)

    g = sub.add_parser("classgroup", help="reduced forms of a negative discriminant")
    g.add_argument("--disc", type=int, required=True)
    g.set_defaults(func=cmd_classgroup)

    pr = sub.add_parser("primes", help="primes up to a limit")
    pr.add_argument("--limit", type=int, required=True)
    pr.set_defaults(func=cmd_primes)

    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CongruenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
