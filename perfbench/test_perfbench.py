#!/usr/bin/env python3
"""Tests of the benchmark itself. Run from the root of a checkout:

    python3 perfbench/test_perfbench.py

Builds the C++ self-tests (perfbench_test) and runs them, then checks
BENCHMARK.json against the benchmark contract and drives perfbench/run.py:
the result schema, that the seed changes the inputs but not the metric set,
that a traced run reports every per-layer metric, and that a directory
without the library sources fails without printing a result.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def bench(workload, seed, trace, seconds=1):
    out = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=run.ROOT, timeout=600)
    return out.returncode, out.stdout.strip().splitlines()


class ContractTest(unittest.TestCase):
    def test_benchmark_json_follows_the_contract(self):
        s = spec()
        self.assertEqual(set(s), {"command", "paths", "run_seconds", "workloads",
                                  "end_to_end", "per_layer"})
        self.assertEqual(s["paths"], ["perfbench"])
        self.assertEqual([w["name"] for w in s["workloads"]], list(run.WORKLOADS))
        names = [m["name"] for m in s["end_to_end"] + s["per_layer"]]
        names += [w["name"] for w in s["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        for m in s["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
            self.assertTrue(0 < m["bound"] <= 0.25)
        setup = [m for m in s["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in s["end_to_end"]))
        for m in s["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            self.assertRegex(m["unit"], UNIT)


class SelfTest(unittest.TestCase):
    def test_cpp_selftests_pass(self):
        self.assertTrue(run.build("perfbench_test"))
        binary = os.path.join(run.BUILD, "perfbench_test")
        self.assertEqual(subprocess.run([binary], cwd=run.OUT).returncode, 0)


class RunTest(unittest.TestCase):
    def check_result(self, lines, table):
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertIsInstance(result["attempted"], int)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(list(result["metrics"]), [m["name"] for m in table])
        for m in table:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
        provenance = json.loads(lines[-2])["provenance"]
        for key in ("device_fingerprint", "nproc", "pool_threads", "campaign_jobs",
                    "build_type", "compiler", "seed"):
            self.assertIn(key, provenance)
        return result

    def test_seed_changes_values_not_the_metric_set(self):
        results = []
        for seed in (1, 2):
            rc, lines = bench("infer_real", seed, 0)
            self.assertEqual(rc, 0)
            results.append(self.check_result(lines, spec()["end_to_end"]))
        self.assertEqual(set(results[0]["metrics"]), set(results[1]["metrics"]))

    def test_traced_run_reports_every_per_layer_metric(self):
        rc, lines = bench("infer_real", 1, 1)
        self.assertEqual(rc, 0)
        self.check_result(lines, spec()["per_layer"])

    def test_fails_without_library_sources(self):
        lone = os.path.join(run.OUT, "lone-checkout")
        shutil.rmtree(lone, ignore_errors=True)
        shutil.copytree(run.HERE, os.path.join(lone, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), lone)
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "infer_real", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=lone, timeout=180)
        shutil.rmtree(lone, ignore_errors=True)
        self.assertNotEqual(out.returncode, 0)
        self.assertEqual(out.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
