"""Regenerates golden.json: the output digest of every benchmark operation
for the seeds the benchmark ships.

    python3 perfbench/make_golden.py            # seeds 0..15, about 7 minutes

Run it only at a commit whose outputs are known to be right: the benchmark
fails any operation whose canonical-JSON sha256 differs from these.  Before
writing, it checks that the sweep-all digest for seed 0 equals the digest of
`congrkit verify --all --max-prime 2000 --format json`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def cli_sweep_digest() -> str:
    from congrkit import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["verify", "--all", "--max-prime", str(workloads.SWEEP_LIMIT),
                         "--format", "json"])
    if code != 0:
        raise SystemExit(f"congrkit verify --all exited {code}")
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


def seed_digests(seed: int) -> dict:
    entry = {}
    for name in ("sweep-all", "sweep-one"):
        out = workloads.make_op(name, seed)(0)
        if out.broken:
            raise SystemExit(f"{name} seed={seed}: non-disputed ids failed: {out.broken}")
        entry[name] = out.digest
    spot = workloads.make_op("spot-large", seed)
    entry["spot-large"] = {}
    for i in range(len(workloads.window_primes(seed))):
        out = spot(i)
        if out.broken:
            raise SystemExit(f"spot-large seed={seed} p={out.prime}: {out.broken} failed")
        entry["spot-large"][str(out.prime)] = out.digest
    return entry


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=16, help="ship seeds 0..N-1")
    args = ap.parse_args()
    seeds = {}
    for seed in range(args.seeds):
        seeds[str(seed)] = seed_digests(seed)
        print(f"seed {seed} done", file=sys.stderr)
    if seeds["0"]["sweep-all"] != cli_sweep_digest():
        raise SystemExit("sweep-all digest for seed 0 differs from the CLI's")
    golden = {
        "sweep_limit": workloads.SWEEP_LIMIT,
        "one": [workloads.ONE_ID, workloads.ONE_LIMIT],
        "window": list(workloads.WINDOW),
        "seeds": seeds,
    }
    with open(workloads.GOLDEN_PATH, "w") as f:
        json.dump(golden, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
