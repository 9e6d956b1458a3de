"""Steadiness check of the benchmark.

    python3 perfbench/steady.py                       # 10 seeds, every workload
    python3 perfbench/steady.py --seeds 5 --workload sweep-all --out runs.jsonl

Runs the benchmark's command once per seed (0, 1, ...) on each workload
with --trace 0, then prints for every end-to-end metric the median of the
runs and their spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median.  A spread
under a third of the metric's bound in BENCHMARK.json is "steady"; setup_s
is reported but its spread is not judged, only its median.  Exits 1 when a
run fails or a spread exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=0)
    ap.add_argument("--workload", action="append", help="repeatable; default all")
    ap.add_argument("--out", help="append each run's result line to this file")
    args = ap.parse_args()
    names = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    bad = False
    for name in names:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            last = res.stdout.strip().splitlines()[-1] if res.stdout.strip() else ""
            if res.returncode or not last.startswith("{"):
                print(f"{name} seed={seed}: exit {res.returncode}\n{res.stderr}", file=sys.stderr)
                bad = True
                continue
            result = json.loads(last)
            bad |= not result["correct"]
            runs.append(result)
            if args.out:
                with open(args.out, "a") as f:
                    log = res.stdout.splitlines()[:-1]
                    f.write(json.dumps({"workload": name, "seed": seed, "log": log, **result}) + "\n")
        if len(runs) < 2:
            continue
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spread = (q3 - q1) / median
            if metric == "setup_s":
                verdict = "not judged"
            elif spread < bound / 3:
                verdict = "steady"
            elif spread <= bound:
                verdict = "within bound"
            else:
                verdict, bad = "TOO NOISY", True
            print(f"{name:13s} {metric:12s} median {median:10.4f}  spread {spread:6.3f}"
                  f"  bound {bound:.2f}  {verdict}  ({len(values)} runs)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
