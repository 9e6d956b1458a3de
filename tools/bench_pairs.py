"""Before/after benchmark numbers for a change: alternating parent/change pairs.

    python3 tools/bench_pairs.py --parent HEAD~ --pairs 3 --seed 11 --out BENCH.json

Runs the command of BENCHMARK.json (`perfbench/run.py --trace 0`) on the
parent commit, extracted with `git archive` into a temporary directory, and
on the working tree, for every workload of BENCHMARK.json.  Pair i of a
workload runs both sides at seed `--seed + i`, the parent first when i is
even and the change first when it is odd, so a slow stretch of the machine
does not favour one side.  The output file holds every run and, per workload
and end-to-end metric, each side's median and quartiles, the change's median
relative to the parent's, the pairs the change won and lost, and the
parent's quartile distance as a share of its median.  Quartiles are
`statistics.quantiles(values, n=4)`, as in perfbench/steady.py.  The file is
rewritten after every run.  Exits 1 when a run fails or an operation fails
its output gate.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, check=True).stdout


def run_once(tree: Path, command: list[str], workload: str, seed: int, seconds: float) -> dict:
    cmd = command + ["--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", "0"]
    res = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = res.stdout.strip().splitlines()
    if res.returncode or not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"{workload} seed={seed} in {tree}: exit {res.returncode}\n{res.stderr}")
    result = json.loads(lines[-1])
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "log": lines[:-1],
    }


def summary(runs: list[dict], metric: str, better: str) -> dict:
    sides = {side: [r["metrics"][metric] for r in runs if r["side"] == side]
             for side in ("parent", "change")}
    out = {}
    for side, values in sides.items():
        q1, med, q3 = (statistics.quantiles(values, n=4)
                       if len(values) > 1 else (values[0],) * 3)
        out[side] = {"median": med, "q1": q1, "q3": q3}
    sign = 1 if better == "lower" else -1
    wins = losses = 0
    for pair in {r["pair"] for r in runs}:
        by_side = {r["side"]: r["metrics"][metric] for r in runs if r["pair"] == pair}
        if len(by_side) == 2:
            d = sign * (by_side["parent"] - by_side["change"])
            wins += d > 0
            losses += d < 0
    parent = out["parent"]
    out["change_vs_parent"] = out["change"]["median"] / parent["median"] - 1
    out["pairs_won"] = wins
    out["pairs_lost"] = losses
    out["parent_iqr_share"] = (parent["q3"] - parent["q1"]) / parent["median"]
    return out


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", default="HEAD~", help="git revision of the parent")
    ap.add_argument("--pairs", type=int, default=3)
    ap.add_argument("--seed", type=int, default=0, help="seed of the first pair")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    parent_sha = git("rev-parse", args.parent).decode().strip()
    record = {
        "parent": parent_sha,
        "change": "working tree on " + git("rev-parse", "HEAD").decode().strip(),
        "command": bench["command"],
        "run_seconds": bench["run_seconds"],
        "pairs": args.pairs,
        "seeds": [args.seed, args.seed + args.pairs - 1],
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                    "processor": platform.processor() or platform.machine()},
        "workloads": {},
    }
    bad = False
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        with tarfile.open(fileobj=io.BytesIO(git("archive", parent_sha))) as tar:
            tar.extractall(tmp)
        trees = {"parent": Path(tmp), "change": ROOT}
        for name in names:
            runs: list[dict] = []
            entry = record["workloads"][name] = {"runs": runs}
            for pair in range(args.pairs):
                seed = args.seed + pair
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for side in order:
                    got = run_once(trees[side], bench["command"], name, seed, bench["run_seconds"])
                    runs.append({"side": side, "pair": pair, "seed": seed, **got})
                    bad |= not got["correct"]
                    print(f"{name} pair {pair} seed {seed} {side}: "
                          + " ".join(f"{k}={v:.4g}" for k, v in got["metrics"].items()),
                          file=sys.stderr)
                    if len({r["side"] for r in runs}) == 2:
                        entry["metrics"] = {m["name"]: summary(runs, m["name"], m["better"])
                                            for m in bench["end_to_end"]}
                    Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
