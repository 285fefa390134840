"""Tiny-size smoke runs of every workload through run.py (builds the engine
on first use, about a minute):

    python3 -m unittest discover -s perfbench/tests

Each run must exit 0, report correct outputs, and emit every metric that
BENCHMARK.json names for its trace mode, with the declared unit and a
sample count.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
import run  # noqa: E402

# Input-size multipliers that keep each run to a few seconds.
SCALES = {"train_gat_cora": 0.2, "train_gcn_amz": 0.05, "serve_gcn_cora": 0.2}

# A metric line of the report: "  <name> <value> <unit> n=<samples>".
METRIC_LINE = re.compile(r"^\s+(\S+)\s+(\S+)\s+(\S+)\s+n=(\d+)$")


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class BenchmarkFileTest(unittest.TestCase):
    def test_names_and_units_match_the_runner(self):
        bench = load_benchmark()
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]}, run.PER_LAYER)
        self.assertEqual([w["name"] for w in bench["workloads"]], list(run.WORKLOADS))


class SmokeTest(unittest.TestCase):
    def run_workload(self, workload, trace):
        completed = subprocess.run(
            [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
             "--seed", "7", "--seconds", "1", "--trace", str(trace),
             "--scale", str(SCALES[workload])],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=600)
        self.assertEqual(completed.returncode, 0, completed.stdout + completed.stderr)
        lines = completed.stdout.strip().splitlines()
        final = json.loads(lines[-1])
        # Unit and sample count of each metric, from the report lines.
        report = {}
        for line in lines[:-1]:
            match = METRIC_LINE.match(line)
            if match:
                report[match.group(1)] = (match.group(3), int(match.group(4)))
        self.assertEqual(set(final), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(final["correct"])
        self.assertGreaterEqual(final["attempted"], 1)
        self.assertEqual(final["failed"], 0)

        bench = load_benchmark()
        declared = bench["per_layer"] if trace else bench["end_to_end"]
        self.assertEqual(set(final["metrics"]), {m["name"] for m in declared})
        for metric in declared:
            name = metric["name"]
            self.assertEqual(final["metrics"][name]["unit"], metric["unit"], name)
            self.assertIsInstance(final["metrics"][name]["value"], float, name)
            self.assertIn(name, report)
            self.assertEqual(report[name][0], metric["unit"], name)
        if not trace:
            for metric in declared:
                self.assertGreater(final["metrics"][metric["name"]]["value"], 0.0, metric["name"])
                self.assertGreaterEqual(report[metric["name"]][1], 1, metric["name"])
        return final

    def test_train_gat_cora(self):
        self.run_workload("train_gat_cora", 0)
        final = self.run_workload("train_gat_cora", 1)
        self.assertEqual(final["metrics"]["exec.plan_misses_steady"]["value"], 0.0)
        self.assertEqual(final["metrics"]["tensor.fresh_mallocs_per_op"]["value"], 0.0)
        self.assertGreater(final["metrics"]["exec.unit_ms"]["value"], 0.0)

    def test_train_gcn_amz(self):
        self.run_workload("train_gcn_amz", 0)
        final = self.run_workload("train_gcn_amz", 1)
        self.assertGreater(final["metrics"]["tensor.dense_ms"]["value"], 0.0)

    def test_serve_gcn_cora(self):
        self.run_workload("serve_gcn_cora", 0)
        final = self.run_workload("serve_gcn_cora", 1)
        self.assertGreater(final["metrics"]["serve.forward_ms_p50"]["value"], 0.0)
        self.assertEqual(final["metrics"]["serve.shed"]["value"], 0.0)
        self.assertEqual(final["metrics"]["parallel.participants"]["value"], 1.0)


if __name__ == "__main__":
    unittest.main()
