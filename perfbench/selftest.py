"""Tiny-size self-test of the benchmark harness (about 20 seconds).

    python3 perfbench/selftest.py

It checks that every named metric is emitted with a unit, that a wrong
oracle value is counted as a failure, that the seed changes simulator
seeds but not the query set, and that the benchmark refuses to run where
there are no pilerace sources.
"""

from __future__ import annotations

import copy
import dataclasses
import numbers
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from speed import PROBE_OF  # noqa: E402
from worker import Runner, load_library, load_oracles  # noqa: E402

os.environ.update(run.child_env())  # CLI children find the checkout's sources

# A few cheap queries of each workload; simulations shrink to 20000 games,
# which leaves their oracle (an exact probability) unchanged.
TINY = {
    "unit_step_series": ("square_sum_value[-1, 1]n=1", "expected_duration[-1, 1]n=1"),
    "exact_walks": ("square_sum_value[-1, 2]n=1", "win_prob_direct[-2, 1]n=1",
                    "win_within[-1, 1]n=1k=2000", "win_prob_direct[-2, 3]n=1tol=1e-09"),
    "monte_carlo": ("run_simulation[-1, 2](3,3)x1000000", "run_simulation[-2, 1](1,1)x30000"),
    "cli_short": ("pilerace verify recurrence", "pilerace within --moves=-1,1 --n=1 --k=100"),
}


def tiny(workload: str) -> list:
    out = []
    for q in workloads.WORKLOADS[workload]:
        if q.qid in TINY[workload]:
            out.append(dataclasses.replace(q, trials=20_000) if q.trials else q)
    return out


def run_tiny(queries, oracles, trace: bool, seed: int = 1, probe: str = "exact") -> dict:
    runner = Runner(queries, oracles, seed, trace, probe)
    runner.run(0)
    return {"passes": runner.passes, "setup": runner.setup, "setup_probe": runner.setup_probe,
            "probe": probe, "peak_rss_mb": 1.0}


class HarnessTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = run.load_spec()
        cls.oracles = load_oracles()

    def test_every_metric_emitted_with_unit(self):
        for workload in workloads.WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    raw = run_tiny(tiny(workload), self.oracles, bool(trace),
                                   probe=PROBE_OF[workload])
                    metrics = run.assemble(self.spec, raw, trace)
                    gated = self.spec["per_layer" if trace else "end_to_end"]
                    for d in gated:
                        m = metrics[d["name"]]
                        self.assertTrue(m["unit"])
                        self.assertIsInstance(m["value"], numbers.Real, d["name"])
                    if not trace:
                        for d in run.EXTRA_END_TO_END:
                            self.assertTrue(metrics[d["name"]]["unit"])
                        self.assertGreater(metrics["setup_s"]["value"], 0)
                        self.assertGreater(metrics["backed_digits_per_s"]["value"], 0)
                    self.assertTrue(run.tally(raw)["correct"])

    def test_wrong_oracle_is_counted_as_failed(self):
        qid = "square_sum_value[-1, 2]n=1"
        wrong = copy.deepcopy(self.oracles)
        wrong[qid]["value"] = "0.3221731826105"  # off by 1e-6
        queries = [q for q in workloads.WORKLOADS["exact_walks"] if q.qid == qid]
        raw = run_tiny(queries, wrong, trace=False)
        metrics = run.end_to_end(raw)
        self.assertEqual(metrics["failed_frac"]["value"], 1.0)
        self.assertEqual(metrics["passed_frac"]["value"], 0.0)
        self.assertFalse(run.tally(raw)["correct"])
        right = run.end_to_end(run_tiny(queries, self.oracles, trace=False))
        self.assertEqual(right["failed_frac"]["value"], 0.0)

    def test_seed_changes_simulator_seeds_not_queries(self):
        lib = load_library()
        stub = {**lib, "simulate": type("Stub", (), {
            "SimConfig": lib["simulate"].SimConfig, "run_simulation": staticmethod(lambda cfg: cfg)})}
        for workload, queries in workloads.WORKLOADS.items():
            one = workloads.pass_order(queries, 1, 0)
            two = workloads.pass_order(queries, 2, 0)
            self.assertEqual(sorted(q.qid for q in one), sorted(q.qid for q in two))
            self.assertEqual(set(one), set(two))
        for q in workloads.WORKLOADS["monte_carlo"]:
            cfg1, cfg2 = workloads.call(q, stub, 1), workloads.call(q, stub, 2)
            self.assertNotEqual(cfg1.seed, cfg2.seed)
            self.assertEqual(dataclasses.replace(cfg1, seed=0), dataclasses.replace(cfg2, seed=0))
            self.assertEqual(cfg1, workloads.call(q, stub, 1))

    def test_refuses_to_run_without_sources(self):
        os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
        with tempfile.TemporaryDirectory(dir=os.path.join(HERE, "results")) as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("results", "__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "exact_walks", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60,
                env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
        self.assertNotEqual(proc.returncode, 0)
        self.assertFalse(any(line.startswith("{") for line in proc.stdout.splitlines()))


if __name__ == "__main__":
    unittest.main()
