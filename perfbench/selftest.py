"""Self-tests of the benchmark itself (congrkit has its own suite).

    python3 perfbench/selftest.py          # about 2 minutes

They check that tracing does not change congrkit's output, that the traced
run's counts repeat exactly, that each per-layer metric is nonzero where a
workload exercises its layer and 0 where the workload bypasses it, that
BENCHMARK.json lists exactly the metrics the benchmark prints, that seed 0's
sweep-all digest is the CLI's, and that the benchmark refuses to run
without congrkit's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import make_golden  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SERIAL = ("sweep-all", "sweep-one", "spot-large")
ALL = SERIAL + ("sweep-all-j2",)

# metric -> (workloads that must read > 0, workloads that must read 0).
# On sweep-all-j2 nothing is traced, so every wrapper metric reads 0 there.
EXPECT = {
    "binomsum.tables_built": (SERIAL, ()),
    "binomsum.tables_ms": (SERIAL, ()),
    "binomsum.tables_hit_ratio": (("sweep-all", "spot-large"), ("sweep-one",)),
    "binomsum.sum_calls": (SERIAL, ()),
    "binomsum.sum_terms": (SERIAL, ()),
    "binomsum.sum_ms": (SERIAL, ()),
    "binomsum.sum_ns_per_term": (SERIAL, ()),
    "binomsum.binom_calls": (("sweep-all", "spot-large"), ("sweep-one",)),
    "binomsum.binom_ms": (("sweep-all", "spot-large"), ("sweep-one",)),
    "engine.ctx_built": (SERIAL, ()),
    "engine.ctx_ms": (SERIAL, ()),
    "engine.uv_hit_ratio": (("sweep-all",), ("sweep-one", "spot-large")),
    "engine.sum_repeat_ratio": (("sweep-all",), ("sweep-one", "spot-large")),
    "engine.cubic_roots_calls": (("sweep-all", "spot-large"), ("sweep-one",)),
    "engine.cubic_roots_residues": (("sweep-all", "spot-large"), ("sweep-one",)),
    "engine.cubic_roots_ms": (("sweep-all", "spot-large"), ("sweep-one",)),
    "engine.samples_drawn": (("sweep-all", "spot-large"), ("sweep-one",)),
    "engine.samples_rejected": (("sweep-all",), ("sweep-one",)),
    "engine.sampler_ms": (("sweep-all", "spot-large"), ("sweep-one",)),
    "engine.na_share": (ALL, ()),
    "engine.tables_unused_share": (("sweep-one",), ("sweep-all", "spot-large")),
    "driver.worker_cpu_s": (("sweep-all-j2",), SERIAL),
    "driver.efficiency": (("sweep-all-j2",), SERIAL),
    "lucas.uv_calls": (("sweep-all", "spot-large"), ("sweep-one",)),
    "lucas.uv_ms": (("sweep-all", "spot-large"), ("sweep-one",)),
    "qform.represent_calls": (SERIAL, ()),
    "qform.represent_ms": (SERIAL, ()),
    "qform.classify_calls": (SERIAL, ()),
    "qform.classify_ms": (SERIAL, ()),
    "qform.two_squares_ms": (("sweep-all",), ("sweep-one",)),
    "cyclotomic.symbol_calls": (("sweep-all", "spot-large"), ("sweep-one",)),
    "cyclotomic.symbol_ms": (("sweep-all", "spot-large"), ("sweep-one",)),
    "modarith.jacobi_calls": (SERIAL, ()),
    "modarith.jacobi_ms": (SERIAL, ()),
    "modarith.sieve_ms": (("sweep-all", "sweep-one"), ("spot-large",)),
    "combsum.exact_calls": (("sweep-all",), ("sweep-one", "spot-large")),
    "combsum.exact_ms": (("sweep-all",), ("sweep-one", "spot-large")),
    "trace.overhead_ratio": (SERIAL, ("sweep-all-j2",)),
    "calib_ms": (ALL, ()),
}
UNTRACED_ON_J2 = {"engine.na_share", "driver.worker_cpu_s", "driver.efficiency", "calib_ms"}


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
           "--seconds", "0", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def result(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode:
        raise AssertionError(f"benchmark exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


class TracedRuns(unittest.TestCase):
    """Two traced runs of every workload, shared by the tests below."""

    runs: dict[str, list[dict]] = {}

    @classmethod
    def setUpClass(cls):
        for w in ALL:
            cls.runs[w] = [result(bench(w, 1)) for _ in range(2)]

    def test_outputs_pass_the_golden_gate(self):
        # The golden digests were made untraced, so a traced operation that
        # passes the gate produced byte-identical canonical JSON.
        for w, runs in self.runs.items():
            for r in runs:
                self.assertTrue(r["correct"], w)
                self.assertEqual(r["failed"], 0, w)

    def test_counts_repeat_exactly(self):
        timed = ("_ms", "_s", "_ns_per_term", "overhead_ratio", "efficiency", ".share",
                 "calib_ms")
        for w, (a, b) in self.runs.items():
            for name, m in a["metrics"].items():
                if name.endswith(timed) or name.startswith("stmt."):
                    continue
                self.assertEqual(m["value"], b["metrics"][name]["value"], f"{w} {name}")

    def test_nonzero_where_exercised_zero_where_bypassed(self):
        for name, (on, off) in EXPECT.items():
            for w in on:
                self.assertNotEqual(self.runs[w][0]["metrics"][name]["value"], 0, f"{w} {name}")
            for w in off:
                self.assertEqual(self.runs[w][0]["metrics"][name]["value"], 0, f"{w} {name}")

    def test_statement_shares(self):
        shares = {k: m["value"] for k, m in self.runs["sweep-all"][0]["metrics"].items()
                  if k.startswith("stmt.")}
        self.assertEqual(len(shares), 54)
        self.assertTrue(all(v > 0 for v in shares.values()))
        self.assertLess(sum(shares.values()), 1)

    def test_nothing_traced_on_the_pool_workload(self):
        for name, m in self.runs["sweep-all-j2"][0]["metrics"].items():
            if name not in UNTRACED_ON_J2:
                self.assertEqual(m["value"], 0, name)

    def test_benchmark_json_lists_the_printed_metrics(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        want = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for w, runs in self.runs.items():
            got = {k: m["unit"] for k, m in runs[0]["metrics"].items()}
            self.assertEqual(got, want, w)
        self.assertEqual(set(EXPECT) | {k for k in want if k.startswith("stmt.")}, set(want))
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))


class Untraced(unittest.TestCase):
    def test_end_to_end_metrics(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        r = result(bench("sweep-one", 0))
        self.assertTrue(r["correct"])
        self.assertGreaterEqual(r["attempted"], 4)
        want = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        self.assertEqual({k: m["unit"] for k, m in r["metrics"].items()}, want)
        self.assertTrue(all(m["value"] > 0 for m in r["metrics"].values()))

    def test_traced_json_equals_untraced_in_process(self):
        for w in SERIAL:
            op = workloads.make_op(w, 0)
            plain = op(1)
            with Tracer().installed():
                traced = op(1)
            self.assertEqual(traced.text, plain.text, w)

    def test_tracer_restores_everything(self):
        from congrkit import lucas
        from congrkit.registry import engine

        before = dict(engine.REGISTRY), engine.uv_mod, lucas.uv_mod, engine.Ctx.uv
        with Tracer().installed():
            self.assertIsNot(engine.uv_mod, before[1])
            self.assertIs(engine.uv_mod, lucas.uv_mod)
        self.assertEqual(before, (dict(engine.REGISTRY), engine.uv_mod, lucas.uv_mod, engine.Ctx.uv))

    def test_seed0_sweep_digest_is_the_cli_digest(self):
        golden = workloads.load_golden()
        self.assertEqual(golden["seeds"]["0"]["sweep-all"], make_golden.cli_sweep_digest())

    def test_refuses_to_run_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = bench("sweep-one", 0, cwd=Path(tmp))
            self.assertNotEqual(proc.returncode, 0)
            self.assertFalse(proc.stdout.strip())


if __name__ == "__main__":
    unittest.main()
