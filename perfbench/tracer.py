"""Outside-in tracing of congrkit's layers for the benchmark's traced run.

The package is not modified.  `Tracer.installed()` replaces public
functions and methods with timing wrappers for the duration of a `with`
block: a module-level function is replaced under every name that any
loaded congrkit module binds to it (so `engine.uv_mod` is traced as well as
`lucas.uv_mod`), a method is replaced on its class, and each registry entry
is swapped for a copy whose applicability test, sampler and check are
wrapped.  Everything is restored on exit.

Spans are aggregated in memory per name as (calls, total ns, self ns); a
span's self time is its duration minus the time of the spans it encloses.
Counters are recorded at the same boundaries.  Pool workers do not send
spans back, so only serial runs are traced.
"""

from __future__ import annotations

import contextlib
import dataclasses
import sys
from time import perf_counter_ns


class Tracer:
    def __init__(self):
        self.spans: dict[str, list[int]] = {}  # name -> [calls, total_ns, self_ns]
        self.counts: dict[str, int] = {}
        self._stack = [0]  # child-time accumulator of each open span
        self._undo: list = []
        self._tables: dict[int, bool] = {}  # id(ModTables) -> read by a sum/binom
        self._unused_tables = 0
        self._sum_ctx = None
        self._sum_keys: set = set()  # (a, b, t, upper) summed through _sum_ctx

    # ------------------------------------------------------------ recording

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def span(self, name: str, fn, note=None):
        """fn wrapped in a span; note(args, result) runs after each call."""
        rec = self.spans.setdefault(name, [0, 0, 0])
        stack = self._stack

        def traced(*args, **kwargs):
            stack.append(0)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter_ns() - t0
                child = stack.pop()
                stack[-1] += dt
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - child
            if note is not None:
                note(args, result)
            return result

        return traced

    # ------------------------------------------------------------ patching

    def _replace_function(self, orig, wrapper) -> None:
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "congrkit" or name.startswith("congrkit.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, orig))

    def _replace_method(self, cls, attr: str, wrapper) -> None:
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    @contextlib.contextmanager
    def installed(self):
        self._install()
        try:
            yield self
        finally:
            self._restore()

    def _install(self) -> None:
        from congrkit import binomsum, combsum, cyclotomic, lucas, modarith, qform
        from congrkit.registry import engine

        MT, Ctx = binomsum.ModTables, engine.Ctx

        # binomsum: factorial tables, the mod_tables LRU, sums, binomials
        def built(args, _):
            self._table_created(args[0])

        def read(args, _):
            self._tables[id(args[0])] = True

        def summed(args, _):
            read(args, None)
            self.count("sum_terms", args[4] + 1)

        self._replace_function(binomsum.mod_tables, self.span("mod_tables", binomsum.mod_tables))
        self._replace_method(MT, "__init__", self.span("tables", MT.__init__, built))
        self._replace_method(MT, "sum_diag_pow", self.span("sum", MT.sum_diag_pow, summed))
        self._replace_method(MT, "binom", self.span("binom", MT.binom, read))
        self._replace_method(MT, "binom_general", self.span("binom", MT.binom_general, read))

        # engine: per-prime contexts, their caches, root scans, samplers
        self._replace_method(Ctx, "__init__", self.span("ctx", Ctx.__init__))
        self._replace_method(Ctx, "uv", self._ctx_uv(Ctx.uv))
        self._replace_method(Ctx, "sum_binom", self._ctx_sum_binom(Ctx.sum_binom))

        def roots(args, _):
            self.count("cubic_roots_residues", args[3])

        self._replace_function(engine.cubic_roots, self.span("cubic_roots", engine.cubic_roots, roots))
        for sid, stmt in list(engine.REGISTRY.items()):
            self._undo.append((engine.REGISTRY, sid, stmt))
            engine.REGISTRY[sid] = self._traced_statement(stmt)

        # lucas, forms, symbols, modarith, combsum
        for name, fn in (
            ("uv_mod", lucas.uv_mod),
            ("represent", qform.represent),
            ("classify", qform.classify_by_class),
            ("two_squares", qform.two_squares),
            ("symbol", cyclotomic.cubic_symbol),
            ("symbol", cyclotomic.quartic_symbol),
            ("jacobi", modarith.jacobi),
            ("sieve", modarith.sieve_primes),
            ("exact", combsum.t_sum_exact),
        ):
            self._replace_function(fn, self.span(name, fn))

    def _restore(self) -> None:
        while self._undo:
            where, attr, orig = self._undo.pop()
            if isinstance(where, dict):
                where[attr] = orig
            else:
                setattr(where, attr, orig)
        for used in self._tables.values():
            self._unused_tables += not used
        self._tables.clear()
        self._sum_ctx = None

    # ------------------------------------------------------------ hooks

    def _table_created(self, table) -> None:
        # An id is only reused once the previous table has been freed, so the
        # previous entry under the same id is finished.
        key = id(table)
        if key in self._tables:
            self._unused_tables += not self._tables[key]
        self._tables[key] = False

    def _ctx_uv(self, orig):
        def uv(ctx, P, Q, n):
            self.count("uv_calls")
            if (P % ctx.p, Q % ctx.p, n) in ctx._uv:
                self.count("uv_hits")
            return orig(ctx, P, Q, n)

        return uv

    def _ctx_sum_binom(self, orig):
        # Repeats are counted within one Ctx; the engine finishes with one
        # Ctx before it builds the next, so only the latest one is kept.
        def sum_binom(ctx, a, b, num, den=1, upper=None):
            p = ctx.p
            if den % p:
                up = p // a if upper is None else upper
                key = (a, b, num % p * pow(den, -1, p) % p, up)
                if self._sum_ctx is not ctx:
                    self._sum_ctx, self._sum_keys = ctx, set()
                self.count("ctx_sum_terms", up + 1)
                if key in self._sum_keys:
                    self.count("ctx_sum_repeat_terms", up + 1)
                self._sum_keys.add(key)
            return orig(ctx, a, b, num, den, upper)

        return sum_binom

    def _traced_statement(self, stmt):
        name = "stmt:" + stmt.id
        changes = {
            "applies": self.span(name, stmt.applies),
            "check": self.span(name, stmt.check),
        }
        if stmt.sampler is not None:

            def drawn(_args, result):
                self.count("samples_drawn")
                if result is None:
                    self.count("samples_rejected")

            changes["sampler"] = self.span(name, self.span("sampler", stmt.sampler, drawn))
        return dataclasses.replace(stmt, **changes)

    # ------------------------------------------------------------ results

    def calls(self, name: str) -> int:
        return self.spans.get(name, [0, 0, 0])[0]

    def self_ms(self, name: str) -> float:
        return self.spans.get(name, [0, 0, 0])[2] / 1e6

    def total_ms(self, name: str) -> float:
        return self.spans.get(name, [0, 0, 0])[1] / 1e6

    def unused_tables(self) -> int:
        return self._unused_tables


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer, wall_ms: float, stmt_ids: list[str], na: int, pairs: int) -> dict:
    """Per-layer metrics of one traced operation that took wall_ms."""
    c = tr.counts.get
    built = tr.calls("tables")
    terms = c("sum_terms", 0)
    m = {
        "binomsum.tables_built": built,
        "binomsum.tables_ms": tr.self_ms("tables"),
        "binomsum.tables_hit_ratio": _ratio(tr.calls("mod_tables") - built, tr.calls("mod_tables")),
        "binomsum.sum_calls": tr.calls("sum"),
        "binomsum.sum_terms": terms,
        "binomsum.sum_ms": tr.self_ms("sum"),
        "binomsum.sum_ns_per_term": _ratio(tr.self_ms("sum") * 1e6, terms),
        "binomsum.binom_calls": tr.calls("binom"),
        "binomsum.binom_ms": tr.self_ms("binom"),
        "engine.ctx_built": tr.calls("ctx"),
        "engine.ctx_ms": tr.self_ms("ctx"),
        "engine.uv_hit_ratio": _ratio(c("uv_hits", 0), c("uv_calls", 0)),
        "engine.sum_repeat_ratio": _ratio(c("ctx_sum_repeat_terms", 0), c("ctx_sum_terms", 0)),
        "engine.cubic_roots_calls": tr.calls("cubic_roots"),
        "engine.cubic_roots_residues": c("cubic_roots_residues", 0),
        "engine.cubic_roots_ms": tr.self_ms("cubic_roots"),
        "engine.samples_drawn": c("samples_drawn", 0),
        "engine.samples_rejected": c("samples_rejected", 0),
        "engine.sampler_ms": tr.self_ms("sampler"),
        "engine.na_share": _ratio(na, pairs),
        "engine.tables_unused_share": _ratio(tr.unused_tables(), built),
        "lucas.uv_calls": tr.calls("uv_mod"),
        "lucas.uv_ms": tr.self_ms("uv_mod"),
        "qform.represent_calls": tr.calls("represent"),
        "qform.represent_ms": tr.self_ms("represent"),
        "qform.classify_calls": tr.calls("classify"),
        "qform.classify_ms": tr.self_ms("classify"),
        "qform.two_squares_ms": tr.self_ms("two_squares"),
        "cyclotomic.symbol_calls": tr.calls("symbol"),
        "cyclotomic.symbol_ms": tr.self_ms("symbol"),
        "modarith.jacobi_calls": tr.calls("jacobi"),
        "modarith.jacobi_ms": tr.self_ms("jacobi"),
        "modarith.sieve_ms": tr.self_ms("sieve"),
        "combsum.exact_calls": tr.calls("exact"),
        "combsum.exact_ms": tr.self_ms("exact"),
    }
    for sid in stmt_ids:
        m[f"stmt.{sid}.share"] = _ratio(tr.total_ms("stmt:" + sid), wall_ms)
    return m
