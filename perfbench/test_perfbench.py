#!/usr/bin/env python3
"""Tests of the benchmark itself, through the same command the runs use.

    python3 perfbench/test_perfbench.py

Each workload runs at small scale (--scale small) with tracing off and on;
the result line must carry exactly the metrics BENCHMARK.json declares, with
their units, and pass its correctness checks. A planted wrong answer (one
finding dropped) must fail them. The tests build the harness into the usual
build directory (.bench_build/ or $CARGO_TARGET_DIR) on first use.
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

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
# linux-large runs through the same command but is not in BENCHMARK.json
# (see README.md), so it is tested alongside the declared workloads.
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["linux-large"]


def bench(workload, trace=0, plant=False, seed=7, cwd=ROOT):
    args = [sys.executable, RUN, "--workload", workload, "--seed", str(seed), "--seconds", "1",
            "--trace", str(trace), "--scale", "small"]
    if plant:
        args.append("--plant-wrong-answer")
    return subprocess.run(args, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)


def result_of(proc):
    if proc.returncode != 0:
        raise AssertionError("run.py exited %d: %s" % (proc.returncode, proc.stderr[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


class ResultShape(unittest.TestCase):
    def check_shape(self, result, declared):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertIsInstance(result["attempted"], int)
        self.assertIsInstance(result["failed"], int)
        self.assertGreaterEqual(result["attempted"], 1)
        expected = {m["name"]: m["unit"] for m in declared}
        self.assertEqual(set(result["metrics"]), set(expected))
        for name, metric in result["metrics"].items():
            self.assertEqual(set(metric), {"value", "unit"}, name)
            self.assertEqual(metric["unit"], expected[name], name)
            self.assertIsInstance(metric["value"], (int, float), name)

    def test_every_workload_end_to_end(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result = result_of(bench(workload))
                self.check_shape(result, SPEC["end_to_end"])
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                for name, metric in result["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)

    def test_every_workload_traced(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result = result_of(bench(workload, trace=1))
                self.check_shape(result, SPEC["per_layer"])
                self.assertTrue(result["correct"])

    def test_same_seed_same_answer(self):
        first = bench("linux-large", seed=3)
        second = bench("linux-large", seed=3)
        self.assertIn("variant\": 4", first.stdout)
        self.assertIn("variant\": 4", second.stdout)
        self.assertTrue(result_of(first)["correct"])
        self.assertTrue(result_of(second)["correct"])


class PlantedWrongAnswer(unittest.TestCase):
    def test_dropped_finding_fails_the_check(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result = result_of(bench(workload, plant=True))
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)


class BareCheckout(unittest.TestCase):
    def test_without_the_analyzer_sources_it_fails_without_a_result(self):
        bare = os.path.join(ROOT, ".bench_build", "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            for path in SPEC["paths"]:
                shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path))
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            workload = SPEC["workloads"][0]["name"]
            proc = subprocess.run(SPEC["command"] + ["--workload", workload, "--seed", "1",
                                                      "--seconds", "1", "--trace", "0"],
                                  cwd=bare, env=env, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
