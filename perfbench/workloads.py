"""The benchmark's workloads, their operations and their output gates.

An operation returns the canonical JSON of what congrkit produced plus the
few facts the gates and metrics need.  The seed reaches congrkit only as
`seed=` and through the primes drawn from it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from pathlib import Path

SWEEP_LIMIT = 2000  # largest engine cap: eq-4.1..4.4 and delta5-family run their whole range
ONE_ID, ONE_LIMIT = "thm-3.8", 10000
# 12 primes just above 10^5, more than the mod_tables LRU (8 entries) holds,
# so cycling through them never finds a prime's tables still cached.
WINDOW = (100_000, 100_170)

WORKLOADS = {
    "sweep-all": "all 54 ids to 2000 at jobs=1: shared Ctx, sum kernel, cubic_roots, Lucas, forms, combsum",
    "sweep-all-j2": "the same sweep at jobs=2: the only workload that runs the fork-pool driver and _split",
    "sweep-one": "thm-3.8 to 10^4: tables built at every prime, half of them unused; classify_by_class; no roots, combsum or pool",
    "spot-large": "every id at seeded primes above 10^5, fresh Ctx per call: large tables, long sums, big scans",
}
TRACEABLE = {"sweep-all", "sweep-one", "spot-large"}  # pool workers return no spans
GOLDEN_PATH = Path(__file__).with_name("golden.json")


@dataclasses.dataclass
class Output:
    text: str  # canonical JSON of the operation's result
    prime: int | None  # the prime of a spot-large operation
    na: int  # (statement, prime) pairs that were not applicable
    pairs: int  # (statement, prime) pairs looked at
    broken: list[str]  # non-disputed ids that failed

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.text.encode()).hexdigest()


def jobs_of(workload: str) -> int:
    return 2 if workload == "sweep-all-j2" else 1


def min_timed_ops(workload: str) -> int:
    """At least 3; on spot-large a whole cycle of the window, so that every
    run's median is taken over the same primes whatever the seed."""
    return len(window_primes(0)) if workload == "spot-large" else 3


def window_primes(seed: int) -> list[int]:
    from congrkit.modarith import is_prime

    primes = [q for q in range(*WINDOW) if is_prime(q)]
    random.Random(seed).shuffle(primes)
    return primes


def make_op(workload: str, seed: int, jobs: int | None = None):
    """op(i) runs the workload's i-th operation and returns its Output."""
    from congrkit import registry
    from congrkit.registry.engine import REGISTRY

    if workload == "spot-large":
        ids = registry.registered_ids()
        order = window_primes(seed)

        def spot(i: int) -> Output:
            p = order[i % len(order)]
            verdicts = [registry.check_statement(sid, p, seed=seed) for sid in ids]
            rows = [dataclasses.asdict(v) for v in verdicts]
            text = json.dumps(rows, indent=2, sort_keys=True) + "\n"
            na = sum(v.outcome == registry.NOT_APPLICABLE for v in verdicts)
            broken = [
                v.id
                for v in verdicts
                if v.outcome == registry.FAIL and REGISTRY[v.id].status != "disputed"
            ]
            return Output(text, p, na, len(verdicts), broken)

        return spot

    if workload == "sweep-one":
        ids, limit = [ONE_ID], ONE_LIMIT
    else:
        ids, limit = registry.registered_ids(), SWEEP_LIMIT
    if jobs is None:
        jobs = jobs_of(workload)

    def sweep(i: int) -> Output:
        reports = registry.verify_many(ids, limit, jobs=jobs, seed=seed)
        return Output(
            registry.reports_json(reports),
            None,
            sum(r.not_applicable for r in reports),
            sum(r.checked + r.not_applicable for r in reports),
            [r.id for r in reports if r.failed and r.status != "disputed"],
        )

    return sweep


def load_golden() -> dict:
    with open(GOLDEN_PATH) as f:
        golden = json.load(f)
    made_for = (golden["sweep_limit"], golden["one"], golden["window"])
    if made_for != (SWEEP_LIMIT, [ONE_ID, ONE_LIMIT], list(WINDOW)):
        raise SystemExit(f"{GOLDEN_PATH.name} was made for other inputs: {made_for}")
    return golden


def golden_digest(golden: dict, workload: str, seed: int, out: Output) -> str | None:
    """The digest shipped for this operation, or None for an unshipped seed."""
    entry = golden["seeds"].get(str(seed))
    if entry is None:
        return None
    if workload == "spot-large":
        return entry["spot-large"][str(out.prime)]
    return entry["sweep-one" if workload == "sweep-one" else "sweep-all"]
