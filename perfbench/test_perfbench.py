#!/usr/bin/env python3
"""The benchmark's own tests, on tiny inputs.

    python3 perfbench/test_perfbench.py

Run from the repository root; the first test builds the binary. Checks
that every workload emits every declared metric with its unit, that both
deliberate corruptions (one value of C, one response's sim_ms) are caught
and raise error_rate, and that the deterministic metrics repeat exactly
for one seed.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("rmat-multiply", "table2-cold", "serve-hot")


def run(workload, trace, seed=1, corrupt="none"):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--tiny", "--corrupt", corrupt],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=600)
    lines = proc.stdout.rstrip("\n").split("\n")
    metric_lines = {}
    for line in lines[:-1]:
        if line.startswith("metric "):
            _, name, value, unit, _ = line.split()
            metric_lines[name] = (float(value), unit)
    return proc.returncode, lines, json.loads(lines[-1]), metric_lines


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


class PerfbenchTest(unittest.TestCase):
    def test_every_declared_metric_with_its_unit(self):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            want = declared(kind)
            for workload in WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    rc, _, result, _ = run(workload, trace)
                    self.assertEqual(rc, 0)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)

    def assertCaught(self, workload, corrupt, message):
        rc, lines, result, metrics = run(workload, 0, corrupt=corrupt)
        self.assertEqual(rc, 0)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertGreater(metrics["error_rate"][0], 0.0)
        failures = [l for l in lines if l.startswith("CHECK FAILED")]
        self.assertTrue(failures)
        self.assertIn(message, failures[0])

    def test_flipped_value_in_c_is_caught(self):
        self.assertCaught("rmat-multiply", "c-value",
                          "differs from ReferenceSpGemm")

    def test_perturbed_sim_ms_is_caught_in_batch(self):
        self.assertCaught("table2-cold", "sim-ms", "sim_ms")

    def test_perturbed_sim_ms_is_caught_in_serve(self):
        self.assertCaught("serve-hot", "sim-ms", "sim_ms")

    def test_deterministic_metrics_repeat_for_one_seed(self):
        def deterministic(result):
            return {k: v["value"] for k, v in result["metrics"].items()
                    if (k.startswith("gpusim.") and k != "gpusim.simulate_ms")
                    or (k.startswith("core.") and not k.endswith("_ms"))
                    or k in ("spgemm.flops", "spgemm.output_nnz")}
        _, _, a, _ = run("table2-cold", 1, seed=5)
        _, _, b, _ = run("table2-cold", 1, seed=5)
        _, _, c, _ = run("table2-cold", 1, seed=6)
        self.assertGreater(len(deterministic(a)), 30)
        self.assertEqual(deterministic(a), deterministic(b))
        self.assertNotEqual(a["metrics"]["spgemm.flops"],
                            c["metrics"]["spgemm.flops"])
        _, _, x, _ = run("table2-cold", 0, seed=5)
        _, _, y, _ = run("table2-cold", 0, seed=5)
        self.assertEqual(x["metrics"]["sim_speedup"],
                         y["metrics"]["sim_speedup"])


if __name__ == "__main__":
    unittest.main()
