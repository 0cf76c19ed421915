#!/usr/bin/env python3
"""Short-run tests of the benchmark itself.

    python3 perfbench/test_perfbench.py

Each test drives perfbench/run.py for a second per run, so the whole file
takes about a minute once the benchmark is built.
"""
import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEEDS = (1, 2)  # the seeds these tests run


def run(workload, seed, trace, cwd=ROOT):
    p = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace)],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900)
    lines = p.stdout.strip().splitlines()
    return p.returncode, lines


class BenchmarkTest(unittest.TestCase):
    def check_metrics(self, workload, trace):
        rc, lines = run(workload, SEEDS[0], trace)
        self.assertEqual(rc, 0, f"{workload} trace={trace} failed")
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        want = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in want})
        for m in want:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"],
                             m["name"])
        self.assertTrue(any(l.startswith("# host: nproc=") for l in lines))

    def test_every_metric_with_its_unit(self):
        for w in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=w, trace=trace):
                    self.check_metrics(w, trace)

    def test_a_second_seed_attaches(self):
        # run.py exits non-zero unless every UE attached and both goodputs
        # are positive.
        for w in WORKLOADS:
            with self.subTest(workload=w):
                rc, lines = run(w, SEEDS[1], 0)
                self.assertEqual(rc, 0)
                self.assertTrue(json.loads(lines[-1])["correct"])

    def test_held_out_seed_is_recorded_and_unused(self):
        with open(os.path.join(HERE, "README.md")) as f:
            m = re.search(r"^Held-out seed: (\d+)$", f.read(), re.M)
        self.assertIsNotNone(m)
        self.assertNotIn(int(m.group(1)), SEEDS)

    def test_fails_without_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            rc, lines = run(WORKLOADS[0], SEEDS[0], 0, cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(rc, 0)
        self.assertFalse(any(l.startswith("{") for l in lines))


if __name__ == "__main__":
    unittest.main()
