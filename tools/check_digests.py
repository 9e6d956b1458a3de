"""Check that the canonical report JSON of `verify --all` is unchanged.

    python3 tools/check_digests.py

Runs `congrkit verify --all --format json` from this checkout's `src/` at
each pinned (max prime, jobs) setting below, prints the sha256 of its output
next to the pinned one, and exits 1 when a run fails or a digest differs.
The 10^4 run takes a minute or two.
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


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    bad = 0
    for limit, jobs, want in PINNED:
        res = subprocess.run(
            [sys.executable, "-m", "congrkit.cli", "verify", "--all", "--format", "json",
             "--max-prime", str(limit), "--jobs", str(jobs)],
            env=env, capture_output=True)
        got = hashlib.sha256(res.stdout).hexdigest()
        ok = res.returncode == 0 and got == want
        bad += not ok
        print(f"{'ok' if ok else 'MISMATCH':8s} max-prime={limit} jobs={jobs} "
              f"exit={res.returncode} sha256={got}" + ("" if ok else f" want={want}"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
