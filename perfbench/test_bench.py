#!/usr/bin/env python3
"""Tests of the layered benchmark itself.

Run from the repository root (builds the benchmark binary on first use):

    python3 perfbench/test_bench.py

* Every workload, on a held-out seed, prints exactly the end-to-end
  metrics BENCHMARK.json names, all non-zero, with no failed operation.
* Every workload's traced run prints exactly the per-layer metrics.
* A reference output with one row dropped makes the run fail: non-zero
  exit, "correct": false and every operation counted as failed.
"""

import json
import math
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HELD_OUT_SEED = 90210
DEFAULT_SEED = 2016
SECONDS = "1"

sys.path.insert(0, HERE)
import run as runner  # noqa: E402

SPEC = runner.load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, seed, trace, *extra):
    r = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", SECONDS, "--trace", str(trace)]
        + list(extra),
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=600)
    lines = r.stdout.splitlines()
    result = json.loads(lines[-1]) if lines else None
    return r.returncode, result, r.stderr


class BenchmarkTest(unittest.TestCase):
    def check_names(self, result, key):
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, want)
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})

    def test_end_to_end_on_held_out_seed(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code, result, err = run(w, HELD_OUT_SEED, 0)
                self.assertEqual(code, 0, err[-2000:])
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                self.check_names(result, "end_to_end")
                for name, m in result["metrics"].items():
                    self.assertTrue(math.isfinite(m["value"]), name)
                    self.assertGreater(m["value"], 0, name)

    def test_traced_run_prints_per_layer_metrics(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code, result, err = run(w, DEFAULT_SEED, 1)
                self.assertEqual(code, 0, err[-2000:])
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.check_names(result, "per_layer")

    def test_dropped_reference_row_is_a_failure(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code, result, _ = run(w, DEFAULT_SEED, 0, "--fault",
                                      "drop-reference-row")
                self.assertNotEqual(code, 0)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], result["attempted"])


if __name__ == "__main__":
    unittest.main()
