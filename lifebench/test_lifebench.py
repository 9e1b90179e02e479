#!/usr/bin/env python3
"""Tests of the lifecycle benchmark, run on a small dataset.

    python3 lifebench/test_lifebench.py

Builds the benchmark and its unit tests (lifebench_test, the C++ helpers)
with run.py's build, runs the unit tests, then runs the benchmark itself:
every workload must answer every operation correctly, print every metric of
BENCHMARK.json exactly once with its unit, and repeat its memory metrics on
a second run.
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402

PUBLICATIONS = "1200"


def metric_units(section):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[section]}


class LifebenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.build = run.build(("lifebench", "lifebench_test"))

    def bench(self, workload, seed=42, trace=0, seconds="3"):
        out = subprocess.run(
            [os.path.join(self.build, "lifebench"), "--workload", workload,
             "--seed", str(seed), "--seconds", seconds, "--trace", str(trace),
             "--publications", PUBLICATIONS],
            stdout=subprocess.PIPE, text=True, check=True).stdout
        last = out.strip().splitlines()[-1]
        result = json.loads(last)
        self.assertTrue(result["correct"], out)
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)
        return result, last

    def assert_metrics(self, result, line, units):
        self.assertEqual(set(result["metrics"]), set(units))
        for name, unit in units.items():
            self.assertEqual(line.count('"%s": {' % name), 1, name)
            self.assertEqual(result["metrics"][name]["unit"], unit, name)

    def test_unit_tests(self):
        subprocess.run([os.path.join(self.build, "lifebench_test")],
                       stdout=subprocess.DEVNULL, check=True)

    def test_every_workload_prints_each_end_to_end_metric_once(self):
        units = metric_units("end_to_end")
        for seed in (42, 7):
            for workload in ("train", "serve"):
                with self.subTest(workload=workload, seed=seed):
                    result, line = self.bench(workload, seed)
                    self.assert_metrics(result, line, units)
                    for name, metric in result["metrics"].items():
                        self.assertGreater(metric["value"], 0, name)

    def test_traced_run_prints_each_per_layer_metric_once(self):
        result, line = self.bench("serve", trace=1)
        self.assert_metrics(result, line, metric_units("per_layer"))
        self.assertGreaterEqual(
            result["metrics"]["serve.hit_rate"]["value"], 0.99)

    def test_memory_metrics_repeat(self):
        first, _ = self.bench("train", seed=11)
        second, _ = self.bench("train", seed=11)

        def value(result, name):
            return result["metrics"][name]["value"]
        # Heap bytes repeat exactly. The kernel counts RSS in per-CPU
        # counters that fold into the total every 32 pages, so a reading can
        # be off by about 32 pages per CPU: 0.7 % of this dataset's ~71 MB
        # on 4 CPUs. Two identical runs must agree within that.
        self.assertEqual(value(first, "stored_bytes_per_row"),
                         value(second, "stored_bytes_per_row"))
        slack = (os.cpu_count() or 1) * 32 * 4096
        self.assertAlmostEqual(value(first, "peak_rss_bytes"),
                               value(second, "peak_rss_bytes"), delta=slack)

    def test_fails_without_engine_sources(self):
        bare = os.path.join(self.build, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "lifebench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run(
            [sys.executable, "lifebench/run.py", "--workload", "serve",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=180)
        shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
