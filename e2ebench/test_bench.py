#!/usr/bin/env python3
"""Self-tests of the end-to-end benchmark.

    python3 e2ebench/test_bench.py

Builds the harness as run.py does, then checks: the C++ self-tests (the
percentile helper leaves at least ten samples beyond p90; a corrupted
label vector counts as a failed op), that the harness's metric tables
match BENCHMARK.json, that BENCHMARK.json keeps its required shape and
limits, that run.py's result check rejects unknown, missing and
mis-united metrics, and that a real short run of the command prints only
metrics BENCHMARK.json names.
"""

import json
import os
import re
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not run.build(targets=("e2ebench", "e2ebench_selftest")):
            raise RuntimeError("build failed")
        cls.spec = load_json(run.SPEC_PATH)

    def test_cpp_selftests_pass(self):
        result = subprocess.run(
            [os.path.join(run.BUILD_DIR, "e2ebench_selftest")],
            capture_output=True, text=True, check=False)
        self.assertEqual(result.returncode, 0, result.stderr)

    def test_metric_tables_match_spec(self):
        listed = subprocess.run(
            [os.path.join(run.BUILD_DIR, "e2ebench_selftest"),
             "--list-metrics"],
            capture_output=True, text=True, check=True).stdout.split("\n")
        harness = {"end_to_end": [], "per_layer": []}
        for line in filter(None, listed):
            table, name, unit = line.split()
            harness[table].append((name, unit))
        for table in ("end_to_end", "per_layer"):
            self.assertEqual(
                harness[table],
                [(m["name"], m["unit"]) for m in self.spec[table]], table)

    def test_spec_shape(self):
        spec = self.spec
        self.assertEqual(set(spec), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertIn(spec["run_seconds"], range(1, 61))
        self.assertTrue(2 <= len(spec["workloads"]) <= 8)
        names = []
        for w in spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            names.append(w["name"])
        bounds = {}
        for m in spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25, m["name"])
            bounds[m["name"]] = m["bound"]
            names.append(m["name"])
        for m in spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            names.append(m["name"])
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(m["name"], NAME_RE)
            self.assertRegex(m["unit"], UNIT_RE)
            self.assertIn(m["better"], ("lower", "higher"))
        self.assertEqual(len(names), len(set(names)), "names are unique")
        setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(bounds.values()))

    def test_check_result_rejects_bad_lines(self):
        spec = run.load_spec()
        metrics = {name: {"value": 1.5, "unit": unit}
                   for name, unit in spec["end_to_end"].items()}
        line = {"correct": True, "attempted": 100, "failed": 0,
                "metrics": metrics}
        self.assertEqual(run.check_result(json.dumps(line), spec, False), [])
        self.assertNotEqual(run.check_result(json.dumps(line), spec, True), [])

        extra = dict(metrics, bogus_ms={"value": 1.0, "unit": "ms"})
        self.assertTrue(any("bogus_ms" in p for p in run.check_result(
            json.dumps(dict(line, metrics=extra)), spec, False)))
        missing = dict(metrics)
        del missing["setup_s"]
        self.assertTrue(any("setup_s" in p for p in run.check_result(
            json.dumps(dict(line, metrics=missing)), spec, False)))
        wrong_unit = dict(metrics, setup_s={"value": 1.0, "unit": "ms"})
        self.assertTrue(any("unit" in p for p in run.check_result(
            json.dumps(dict(line, metrics=wrong_unit)), spec, False)))
        self.assertNotEqual(run.check_result(
            json.dumps(dict(line, extra=1)), spec, False), [])

    def test_short_runs_print_only_named_metrics(self):
        spec = run.load_spec()
        for trace in (0, 1):
            result = subprocess.run(
                [sys.executable, os.path.join(run.HERE, "run.py"),
                 "--workload", "stream", "--seed", "7", "--seconds", "1",
                 "--trace", str(trace)],
                capture_output=True, text=True, check=False)
            self.assertEqual(result.returncode, 0, result.stderr)
            last = result.stdout.splitlines()[-1]
            self.assertEqual(run.check_result(last, spec, trace == 1), [])
            parsed = json.loads(last)
            self.assertTrue(parsed["correct"])
            self.assertGreaterEqual(parsed["attempted"], 100)


if __name__ == "__main__":
    unittest.main()
