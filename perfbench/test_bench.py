#!/usr/bin/env python3
"""Smoke tests of the benchmark itself (small inputs, about a minute).

  python3 perfbench/test_bench.py

For every workload: the one command emits every metric of BENCHMARK.json
with its unit and a direction, the bypass predictions hold, and a
planted wrong value makes the correctness check exit nonzero.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["tenant_qos", "cluster_rw", "graph_scc", "kv_rww"]

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, trace=0, plant=False):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "0", "--trace", str(trace), "--smoke"]
    if plant:
        cmd.append("--plant")
    p = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
    return p.returncode, json.loads(p.stdout.strip().splitlines()[-1]), p.stdout


class BenchmarkSmoke(unittest.TestCase):
    traced = {}

    @classmethod
    def setUpClass(cls):
        for w in WORKLOADS:
            cls.traced[w] = run(w, trace=1)

    def test_spec_names_units_and_directions(self):
        names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertIn(m["better"], ("higher", "lower"), m["name"])
            self.assertTrue(m["unit"], m["name"])
        self.assertIn("setup_s", [m["name"] for m in SPEC["end_to_end"]])

    def test_end_to_end_metrics_emitted_with_units(self):
        for w in WORKLOADS:
            code, result, stdout = run(w)
            self.assertEqual(code, 0, stdout)
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            self.assertGreaterEqual(result["attempted"], 1)
            for m in SPEC["end_to_end"]:
                got = result["metrics"][m["name"]]
                self.assertEqual(got["unit"], m["unit"], (w, m["name"]))
                self.assertGreater(got["value"], 0, (w, m["name"]))
                # The human-readable lines carry name, unit and direction.
                self.assertIn("(%s is better" % m["better"], stdout)
            self.assertEqual(set(result["metrics"]), {m["name"] for m in SPEC["end_to_end"]})

    def test_per_layer_metrics_emitted_with_units(self):
        for w in WORKLOADS:
            code, result, stdout = self.traced[w]
            self.assertEqual(code, 0, stdout)
            self.assertTrue(result["correct"], stdout)
            self.assertEqual(set(result["metrics"]), {m["name"] for m in SPEC["per_layer"]})
            for m in SPEC["per_layer"]:
                self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])

    def test_bypass_predictions(self):
        def metrics(w):
            return {n: v["value"] for n, v in self.traced[w][1]["metrics"].items()}
        for w in WORKLOADS:
            m = metrics(w)
            cache = {n: v for n, v in m.items() if n.startswith("cache.")}
            cluster = {n: v for n, v in m.items() if n.startswith("cluster.")}
            if w in ("tenant_qos", "cluster_rw"):
                self.assertFalse(any(cache.values()), (w, cache))
            else:
                self.assertGreater(m["cache.misses"], 0, w)
            if w == "cluster_rw":
                self.assertGreater(cluster["cluster.extents_per_req"], 1.0)
                self.assertGreater(cluster["cluster.device_writes_per_write"], 1.9)
            else:
                self.assertFalse(any(cluster.values()), (w, cluster))
            if w == "tenant_qos":
                self.assertGreaterEqual(m["ctrl.registrations"], 1000)
            else:
                self.assertLessEqual(m["ctrl.registrations"], 4, w)
            self.assertGreater(m["sim.events_per_req"], 0, w)

    def test_planted_wrong_value_fails(self):
        for w in WORKLOADS:
            code, result, stdout = run(w, plant=True)
            self.assertNotEqual(code, 0, (w, stdout))
            self.assertFalse(result["correct"], w)
            self.assertIn("PROBLEM: check failed", stdout)


if __name__ == "__main__":
    unittest.main()
