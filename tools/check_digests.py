"""Check that the canonical report JSON of `verify --all` is unchanged, and
that the verdicts of the form-table statements and of every id are too.

    python3 tools/check_digests.py

Runs `congrkit verify --all --format json` from this checkout's `src/` at
each pinned (max prime, jobs) setting below, prints the sha256 of its output
next to the pinned one, and exits 1 when a run fails or a digest differs.
The 10^4 run takes a minute or two.

The canonical JSON lists failures only, so a fourth digest pins the passing
verdicts of the ids that classify p by a form class (row labels and `rep`
witnesses included): the sha256 of the sorted-key JSON of
`dataclasses.asdict(check_statement(id, p))`, one line each, for every
FORM_IDS id at every odd prime <= 3000 and at the primes in (100000, 100170).
A fifth digest is the same over every registered id (about 30 s): it pins
what the JSON does not show of each verdict, the passes, NotApplicable, the
sampled `{"samples": 20}` and `witnesses` None against `{}`.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PINNED = (
    (1000, 1, "5e15beb996b84bb4c618bc9a58c24dd5540c3a7fa52f28f37b71ab38b6932b10"),
    (2000, 2, "33eed3687ad7ed33000a44cd208cda7705d7d51752bb57721460a2e7ba4c4470"),
    (10_000, 1, "cdcf30aae4b4f1b1f82a4ebe4eef66a28817940e637db7203d6687a3fe53bf98"),
)

FORM_IDS = ("thm-2.8", "thm-3.4", "thm-3.5", "thm-3.6", "thm-3.7", "thm-3.8", "thm-3.9",
            "intro-1.3", "lem-3.3")
FORM_DIGEST = "f07cc32067dbbe894ffebc18fc3026cfdfbcf0bf12032c6d7629b4a6b458d2e7"
ALL_DIGEST = "216c2a2284570ea9cd589882a5226c82ed948a12e9f19e500100212930543d8b"

_FORM_VERDICTS = """
import dataclasses, hashlib, json, sys
from congrkit.modarith import is_prime
from congrkit.registry import check_statement, registered_ids
primes = [p for p in range(3, 3001, 2) if is_prime(p)]
primes += [p for p in range(100001, 100170, 2) if is_prime(p)]
h = hashlib.sha256()
for sid in sys.argv[1:] or registered_ids():
    for p in primes:
        h.update(json.dumps(dataclasses.asdict(check_statement(sid, p)), sort_keys=True).encode())
        h.update(b"\\n")
print(h.hexdigest())
"""


def _report(ok: bool, what: str, code: int, got: str, want: str) -> bool:
    print(f"{'ok' if ok else 'MISMATCH':8s} {what} exit={code} sha256={got}"
          + ("" if ok else f" want={want}"))
    return ok


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    bad = 0
    for limit, jobs, want in PINNED:
        res = subprocess.run(
            [sys.executable, "-m", "congrkit.cli", "verify", "--all", "--format", "json",
             "--max-prime", str(limit), "--jobs", str(jobs)],
            env=env, capture_output=True)
        got = hashlib.sha256(res.stdout).hexdigest()
        bad += not _report(res.returncode == 0 and got == want,
                           f"max-prime={limit} jobs={jobs}", res.returncode, got, want)
    for ids, want, what in ((FORM_IDS, FORM_DIGEST, "form-table verdicts"),
                            ((), ALL_DIGEST, "all-id verdicts")):
        res = subprocess.run([sys.executable, "-c", _FORM_VERDICTS, *ids],
                             env=env, capture_output=True, text=True)
        got = res.stdout.strip()
        bad += not _report(res.returncode == 0 and got == want, what, res.returncode, got, want)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
