"""congrkit benchmark: one workload per run, every output checked.

    python3 perfbench/run.py --workload sweep-all --seed 0 --seconds 15 --trace 0

With --trace 0 it prints the end-to-end metrics (setup_s, op_ms,
peak_rss_mb); with --trace 1 the per-layer metrics of a traced run.  The
last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The exit code is 0 only when every operation's output passed its gate.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads
from calib import REFERENCE_S, calib_s
from tracer import Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_CHILDREN = 12  # fresh interpreters timed per run for setup_s, at least
SETUP_PER_OP = 2  # of them after each operation

# Times `import congrkit.registry` inside a fresh interpreter, so that
# interpreter start-up and site hooks stay out of setup_s, then times the
# calibration loop in the same child.
_SETUP_CHILD = """\
import sys, time
sys.path[:0] = sys.argv[1:3]
from calib import calib_s
t = time.perf_counter()
import congrkit.registry
t = time.perf_counter() - t
print(repr(t), repr(calib_s()), len(congrkit.registry.registered_ids()), congrkit.__file__)
"""


class SetupTimer:
    """Seconds to import congrkit.registry in a fresh interpreter, scaled to
    the reference machine speed by the calibration loop timed in the child.

    The children are spread over the run, between operations, so that the
    median covers the same stretch of machine time as op_ms does."""

    def __init__(self):
        self.cmd = [sys.executable, "-I", "-c", _SETUP_CHILD, str(SRC), str(HERE)]
        self.raw: list[float] = []
        self.scaled: list[float] = []
        self._child()  # writes the bytecode caches; not counted

    def _child(self) -> tuple[float, float]:
        res = subprocess.run(self.cmd, capture_output=True, text=True, timeout=120, check=True)
        t, c, nids, where = res.stdout.split()
        if int(nids) != 54 or not Path(where).resolve().is_relative_to(SRC):
            raise SystemExit(f"setup child imported {nids} ids from {where}")
        return float(t), float(c)

    def sample(self, n: int) -> None:
        for _ in range(n):
            t, c = self._child()
            self.raw.append(t)
            self.scaled.append(t * REFERENCE_S / c)

    def median(self) -> float:
        self.sample(max(0, SETUP_CHILDREN - len(self.scaled)))
        return statistics.median(self.scaled)


def calibrate() -> float:
    """Milliseconds for the calibration loop, median of 5: machine speed."""
    return statistics.median(calib_s() for _ in range(5)) * 1e3


def _proc_kb(path: str, *fields: str) -> int:
    """Sum of the named kB fields of a /proc status-style file."""
    total = 0
    with open(path) as f:
        for line in f:
            name, _, rest = line.partition(":")
            if name in fields:
                total += int(rest.split()[0])
    return total


class TreeMemory(threading.Thread):
    """Samples, every 10 ms while `watching` is set, this process's resident
    set plus the pages private to its child processes (pool workers share
    the rest with it by fork).  peak_kb is the largest sample.  Operations
    are watched; the setup children that run between them are not."""

    def __init__(self):
        super().__init__(daemon=True)
        self.peak_kb = 0
        self.watching = False
        self._stop_event = threading.Event()

    def _children(self) -> list[str]:
        pids = []
        for task in os.listdir("/proc/self/task"):
            try:
                with open(f"/proc/self/task/{task}/children") as f:
                    pids += f.read().split()
            except FileNotFoundError:
                pass
        return pids

    def sample(self) -> int:
        total = _proc_kb("/proc/self/status", "VmRSS")
        for pid in self._children():
            try:
                total += _proc_kb(f"/proc/{pid}/smaps_rollup", "Private_Clean", "Private_Dirty")
            except (FileNotFoundError, ProcessLookupError):
                pass  # the worker exited between listing and reading
        return total

    def run(self) -> None:
        while not self._stop_event.wait(0.01):
            if self.watching:
                self.peak_kb = max(self.peak_kb, self.sample())

    def stop(self) -> int:
        self._stop_event.set()
        self.join()
        return self.peak_kb


def _children_cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


class Runner:
    """Runs one workload's operations and checks each one's output."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.golden = workloads.load_golden()
        self.op = workloads.make_op(workload, seed)
        self.next_index = 0
        self.attempted = 0
        self.failed = 0
        self.first_sweep_digest: str | None = None
        self.last: object = None

    def run_op(self) -> float:
        """Runs the next operation, checks it, returns its wall time in s."""
        i = self.next_index
        self.next_index += 1
        t0 = time.perf_counter()
        out = self.op(i)
        dt = time.perf_counter() - t0
        self.check(out)
        self.last = out
        return dt

    def check(self, out) -> None:
        self.attempted += 1
        ok = not out.broken
        want = workloads.golden_digest(self.golden, self.workload, self.seed, out)
        if want is not None:
            ok = ok and out.digest == want
        if out.prime is None:  # every sweep operation repeats the first
            self.first_sweep_digest = self.first_sweep_digest or out.digest
            ok = ok and out.digest == self.first_sweep_digest
        if not ok:
            self.failed += 1
            print(f"output gate failed: {self.workload} seed={self.seed} op={self.attempted}"
                  f" prime={out.prime} broken={out.broken}", file=sys.stderr)

    def cross_check_jobs(self) -> None:
        """For a seed without golden digests: the sweep at the other job
        count must give the same canonical JSON."""
        if self.golden["seeds"].get(str(self.seed)) or self.first_sweep_digest is None:
            return
        if self.workload not in ("sweep-all", "sweep-all-j2"):
            return
        other = 1 if workloads.jobs_of(self.workload) == 2 else 2
        out = workloads.make_op(self.workload, self.seed, jobs=other)(0)
        self.check(out)


def run_untraced(runner: Runner, seconds: float) -> dict:
    setup = SetupTimer()
    memory = TreeMemory() if workloads.jobs_of(runner.workload) > 1 else None
    if memory:
        memory.start()

    def op() -> tuple[float, float, float]:
        """(wall s, wall s scaled to the reference speed, calibration s) of
        one operation, bracketed by calibration loops."""
        before = calib_s()
        if memory:
            memory.watching = True
        try:
            dt = runner.run_op()
        finally:
            if memory:
                memory.watching = False
        calib = (before + calib_s()) / 2
        return dt, dt * REFERENCE_S / calib, calib

    timed = []
    try:
        op()  # warm-up, untimed
        setup.sample(SETUP_PER_OP)
        start = time.perf_counter()
        min_ops = workloads.min_timed_ops(runner.workload)
        while len(timed) < min_ops or time.perf_counter() - start < seconds:
            timed.append(op())
            setup.sample(SETUP_PER_OP)
    finally:
        tree_kb = memory.stop() if memory else 0
    raw, scaled, speeds = zip(*timed)
    setup_s = setup.median()
    runner.cross_check_jobs()
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    peak_mb = max(self_kb, tree_kb) / 1024
    print(f"op_ms: median of {len(scaled)} operations scaled to the reference speed; "
          f"unscaled median {statistics.median(raw) * 1e3:.1f} ms, each: "
          + " ".join(f"{t * 1e3:.1f}" for t in raw))
    print(f"setup_s: median of {len(setup.scaled)} fresh interpreters, scaled; "
          f"unscaled median {statistics.median(setup.raw) * 1e3:.2f} ms")
    print(f"calibration loop: median {statistics.median(speeds) * 1e3:.1f} ms "
          f"(reference {REFERENCE_S * 1e3:.0f} ms), each: "
          + " ".join(f"{c * 1e3:.1f}" for c in speeds))
    print(f"peak_rss_mb: {'sampled process tree' if memory else 'RUSAGE_SELF ru_maxrss'}")
    return {
        "setup_s": (setup_s, "s"),
        "op_ms": (statistics.median(scaled) * 1e3, "ms"),
        "peak_rss_mb": (peak_mb, "MB"),
    }


def run_traced(runner: Runner, seconds: float) -> dict:
    from congrkit.registry import registered_ids

    calib_ms = calibrate()
    traceable = runner.workload in workloads.TRACEABLE
    runner.run_op()  # warm-up, untimed
    layers = None
    traced, plain, worker_cpu, efficiency = [], [], [], []
    jobs = workloads.jobs_of(runner.workload)
    start = time.perf_counter()
    while not plain or time.perf_counter() - start < seconds:
        if traceable and len(traced) <= len(plain):
            tracer = Tracer()
            with tracer.installed():
                dt = runner.run_op()
            traced.append(dt)
            if layers is None:  # counters come from the first traced operation only
                out = runner.last
                layers = layer_metrics(tracer, dt * 1e3, registered_ids(), out.na, out.pairs)
            continue
        cpu0 = _children_cpu_s()
        dt = runner.run_op()
        cpu = _children_cpu_s() - cpu0
        plain.append(dt)
        worker_cpu.append(cpu)
        efficiency.append(cpu / (jobs * dt))
    if layers is None:
        out = runner.last
        layers = layer_metrics(Tracer(), plain[0] * 1e3, registered_ids(), out.na, out.pairs)
    overhead = statistics.median(traced) / statistics.median(plain) - 1 if traced else 0.0
    layers.update({
        "driver.worker_cpu_s": statistics.median(worker_cpu) if jobs > 1 else 0.0,
        "driver.efficiency": statistics.median(efficiency) if jobs > 1 else 0.0,
        "trace.overhead_ratio": overhead,
        "calib_ms": calib_ms,
    })
    print(f"traced {len(traced)} and untraced {len(plain)} operations")
    return {name: (value, unit_of(name)) for name, value in layers.items()}


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ns_per_term"):
        return "ns/term"
    if name.endswith(("_ratio", "_share", ".share", ".efficiency")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "congrkit" / "__init__.py").is_file():
        print(f"no congrkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import congrkit

    if not Path(congrkit.__file__).resolve().is_relative_to(SRC):
        print(f"congrkit was imported from {congrkit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")

    runner = Runner(args.workload, args.seed)
    run = run_traced if args.trace else run_untraced
    metrics = run(runner, args.seconds)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    correct = runner.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
