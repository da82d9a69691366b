#!/usr/bin/env python3
"""Tests of the end-to-end benchmark itself.

    python3 perfbench/test_perfbench.py

Builds the driver through run.py (same build tree), then checks that the
answer checks catch corrupted answers, that the metric names the driver
prints are exactly those BENCHMARK.json lists, that a minimal run of every
workload passes every check, and that run.py fails cleanly without the
project sources.
"""

import importlib.util
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

_spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
run_py = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run_py)


def load_benchmark_json():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def names_and_units(entries):
    return [(e["name"], e["unit"]) for e in entries]


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run_py.build()
        cls.spec = load_benchmark_json()

    def run_workload(self, workload, trace):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
             "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        identity = json.loads(lines[0])["perfbench"]
        return result, identity

    def test_checks_catch_corrupted_answers(self):
        proc = subprocess.run([str(self.binary), "--self-test"], capture_output=True,
                              text=True, timeout=600)
        self.assertEqual(proc.returncode, 0, proc.stderr + proc.stdout)

    def test_metric_names_match_benchmark_json(self):
        proc = subprocess.run([str(self.binary), "--list-metrics"], capture_output=True,
                              text=True, check=True, timeout=60)
        listed = json.loads(proc.stdout)
        self.assertEqual(
            [(m["name"], m["unit"]) for m in listed["end_to_end"]],
            names_and_units(self.spec["end_to_end"]))
        self.assertEqual(
            [(m["name"], m["unit"]) for m in listed["per_layer"]],
            names_and_units(self.spec["per_layer"]))
        self.assertEqual(listed["workloads"], [w["name"] for w in self.spec["workloads"]])

    def test_minimal_run_of_every_workload_is_correct(self):
        expected = [m["name"] for m in self.spec["end_to_end"]]
        for w in self.spec["workloads"]:
            with self.subTest(workload=w["name"]):
                result, identity = self.run_workload(w["name"], 0)
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(list(result["metrics"]), expected)
                for name, m in result["metrics"].items():
                    self.assertGreater(m["value"], 0, name)
                self.assertTrue(identity["fingerprint"])
                self.assertEqual(identity["why"], w["why"])

    def test_traced_run_reports_every_per_layer_metric(self):
        result, identity = self.run_workload("ingest", 1)
        self.assertTrue(result["correct"])
        self.assertEqual(list(result["metrics"]),
                         [m["name"] for m in self.spec["per_layer"]])
        self.assertGreater(result["metrics"]["trace.spans"]["value"], 0)
        self.assertTrue(Path(identity["trace_file"]).is_file())

    def test_fails_without_project_sources(self):
        scratch = Path(run_py.build_dir()).parent
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "ingest", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
