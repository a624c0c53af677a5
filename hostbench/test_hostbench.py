#!/usr/bin/env python3
"""Smoke test of the host-performance benchmark (hostbench/run.py).

Run from anywhere inside a cmpmem checkout:

    python3 hostbench/test_hostbench.py

For every workload in BENCHMARK.json, at scale 0 (the tiny test
inputs), it runs the benchmark with --trace 0 and --trace 1 and checks
that the command exits 0, reports "correct": true with no failed job,
and prints every end_to_end (resp. per_layer) metric of BENCHMARK.json
with the unit BENCHMARK.json gives it. It then adds the hidden `hang`
job, which only its watchdog can stop, and checks that the job counts
as failed and the command exits nonzero.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def bench(workload, trace, *extra):
    """Run the benchmark; return (exit code, stdout lines, result)."""
    r = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"),
         "--workload", workload, "--seed", "1", "--seconds", "1",
         "--trace", str(trace), "--scale", "0"] + list(extra),
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    lines = r.stdout.splitlines()
    return r.returncode, lines, json.loads(lines[-1]) if lines else None


class HostbenchSmoke(unittest.TestCase):

    def check_metrics(self, workload, trace, specs):
        code, lines, result = bench(workload, trace)
        self.assertEqual(code, 0, "\n".join(lines[-20:]))
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        metrics = result["metrics"]
        self.assertEqual(set(metrics), {m["name"] for m in specs})
        for m in specs:
            got = metrics[m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
            # ... and the human-readable line names it with its unit.
            self.assertTrue(
                any(l.startswith(m["name"] + ": ") and
                    l.endswith(" " + m["unit"]) for l in lines),
                m["name"])

    def test_every_metric_with_its_unit(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"], trace=0):
                self.check_metrics(w["name"], 0, SPEC["end_to_end"])
            with self.subTest(workload=w["name"], trace=1):
                self.check_metrics(w["name"], 1, SPEC["per_layer"])

    def test_hung_job_fails_the_run(self):
        w = SPEC["workloads"][0]["name"]
        code, lines, result = bench(w, 0, "--inject-hang")
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        # The hang job fails in the warm-up and in the timed pass.
        self.assertGreaterEqual(result["failed"], 2)
        self.assertTrue(any("FAILED: SimError(watchdog)" in l
                            for l in lines), "\n".join(lines))
        self.assertTrue(any(l.startswith("failed_frac: ") and
                            not l.startswith("failed_frac: 0 ")
                            for l in lines))


if __name__ == "__main__":
    unittest.main()
