"""Before/after benchmark numbers for a change: alternating parent/change pairs.

    python3 tools/bench_pairs.py --parent HEAD~ --pairs 3 --seed 11 --out BENCH.json

Runs the command of BENCHMARK.json (`perfbench/run.py --trace 0`) on the
parent commit, extracted with `git archive` into a temporary directory, and
on the working tree, for every workload of BENCHMARK.json, or for those
named by `--workload NAME` (repeatable).  Pair i of a workload runs both
sides at seed `--seed + i`, the parent first when i is even and the change
first when it is odd, so a slow stretch of the machine does not favour one
side.  The output file holds every run and, per workload and end-to-end
metric, each side's median, quartiles, min and max, the change's median
relative to the parent's, the pairs the change won and lost, each side's
quartile distance as a share of its median, and two verdicts:

- `status`: `worse` when the change's median is worse than the parent's by
  more than the metric's bound in BENCHMARK.json; else `unresolved` when
  either side's quartile distance is wider than the bound, unless every
  change run beats every parent run; else `within bound`;
- `gain_rule_met`: the change won at least nine tenths of the pairs, ties
  counting for neither side, and its median beats the parent's by more than
  the parent's quartile distance.

Quartiles are `statistics.quantiles(values, n=4)`, as in perfbench/steady.py.
The file is rewritten after every run.  Exits 1 when a run fails or an
operation fails its output gate.
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


def summary(runs: list[dict], metric: str, better: str, bound: float) -> dict:
    sides = {side: [r["metrics"][metric] for r in runs if r["side"] == side]
             for side in ("parent", "change")}
    out = {}
    for side, values in sides.items():
        q1, med, q3 = (statistics.quantiles(values, n=4)
                       if len(values) > 1 else (values[0],) * 3)
        out[side] = {"median": med, "q1": q1, "q3": q3, "min": min(values), "max": max(values)}
    sign = 1 if better == "lower" else -1  # sign * (parent - change) > 0: the change is better
    wins = losses = pairs = 0
    for pair in {r["pair"] for r in runs}:
        by_side = {r["side"]: r["metrics"][metric] for r in runs if r["pair"] == pair}
        if len(by_side) == 2:
            d = sign * (by_side["parent"] - by_side["change"])
            pairs += 1
            wins += d > 0
            losses += d < 0
    parent, change = out["parent"], out["change"]
    out["change_vs_parent"] = change["median"] / parent["median"] - 1
    out["pairs_won"] = wins
    out["pairs_lost"] = losses
    out["parent_iqr_share"] = (parent["q3"] - parent["q1"]) / parent["median"]
    out["change_iqr_share"] = (change["q3"] - change["q1"]) / change["median"]
    if sign * out["change_vs_parent"] > bound:
        out["status"] = "worse"
    elif (max(out["parent_iqr_share"], out["change_iqr_share"]) > bound
          and not all(sign * (p - c) > 0 for p in sides["parent"] for c in sides["change"])):
        out["status"] = "unresolved"
    else:
        out["status"] = "within bound"
    out["gain_rule_met"] = (pairs > 0 and 10 * wins >= 9 * pairs
                            and sign * (parent["median"] - change["median"])
                            > parent["q3"] - parent["q1"])
    return out


def parse_args(argv: list[str] | None, names: list[str]) -> argparse.Namespace:
    """The options; args.workloads holds the workloads to run, in the order
    of names, every one of them unless --workload names some."""
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", default="HEAD~", help="git revision of the parent")
    ap.add_argument("--pairs", type=int, default=3)
    ap.add_argument("--seed", type=int, default=0, help="seed of the first pair")
    ap.add_argument("--out", required=True)
    ap.add_argument("--workload", action="append", choices=names, dest="workloads",
                    help="a workload to run, repeatable; default every one")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error(f"--pairs must be at least 1, got {args.pairs}")
    args.workloads = [n for n in names if n in (args.workloads or names)]
    return args


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(None, [w["name"] for w in bench["workloads"]])

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
            tar.extractall(tmp, filter="data")
        trees = {"parent": Path(tmp), "change": ROOT}
        for name in args.workloads:
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
                        entry["metrics"] = {
                            m["name"]: summary(runs, m["name"], m["better"], m["bound"])
                            for m in bench["end_to_end"]}
                    Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
