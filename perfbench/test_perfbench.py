#!/usr/bin/env python3
"""Smoke tests of the benchmark itself: python3 perfbench/test_perfbench.py

Runs every workload in --smoke mode (tiny sizes, one round), untraced and
traced, and checks that every metric BENCHMARK.json names prints with its
unit, that a wrong reference trips the correctness gate, and that the
command fails without a result when the library sources are missing.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
WORK = os.path.join(ROOT, ".bench_build", "perfbench", "selftest")
WORKLOADS = ("memory_d9", "cosmic_cold_d7", "cosmic_restart_d7",
             "q3de_burst_d7")


def run(workload, trace, *extra, cwd=ROOT, script=RUN):
    cmd = [sys.executable, script, "--workload", workload, "--seed", "1",
           "--seconds", "0", "--trace", str(trace), "--smoke", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def result(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


class SmokeTest(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)
        os.makedirs(WORK, exist_ok=True)

    def check_metrics(self, proc, declared):
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        res = result(proc)
        self.assertEqual(set(res), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertTrue(res["correct"])
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(res["failed"], 0)
        self.assertEqual(set(res["metrics"]), {m["name"] for m in declared})
        text = proc.stdout.splitlines()[:-1]
        for m in declared:
            got = res["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
            printed = [l for l in text if l.split()[:1] == [m["name"]]]
            self.assertEqual(len(printed), 1, m["name"])
            self.assertTrue(printed[0].rstrip().endswith(" " + m["unit"]),
                            printed[0])

    def test_end_to_end_metrics_print_with_units(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.check_metrics(run(w, 0), self.spec["end_to_end"])

    def test_per_layer_metrics_print_with_units(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.check_metrics(run(w, 1), self.spec["per_layer"])

    def test_wrong_reference_trips_gate(self):
        with open(os.path.join(HERE, "reference.json")) as f:
            refs = json.load(f)
        entry = refs["smoke/memory_d9/1"]
        entry["timed"][1] += 1  # one logical failure too many
        tampered = os.path.join(WORK, "tampered_reference.json")
        with open(tampered, "w") as f:
            json.dump(refs, f)
        proc = run("memory_d9", 0, "--reference", tampered)
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        res = result(proc)
        self.assertFalse(res["correct"])
        self.assertGreaterEqual(res["failed"], 1)
        self.assertIn("DIVERGENCE", proc.stdout)

    def test_fails_without_library_sources(self):
        bare = os.path.join(WORK, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run("memory_d9", 0, cwd=bare,
                   script=os.path.join(bare, "perfbench", "run.py"))
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
