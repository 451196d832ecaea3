#!/usr/bin/env python3
"""Tests of the end-to-end benchmark itself.

Run from the repository root (about three minutes on four cores):

    python3 e2ebench/test_bench.py

A short run of each workload must print every metric BENCHMARK.json names,
with its unit, plus the workload's own named metrics; a planted wrong
answer must trip each workload's oracle (non-zero exit, correct: false);
and the command must refuse to run without the program's sources.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

# Metrics each workload prints under the names of e2ebench/README.md.
NAMED = {
    "ipl_author": [("setup_s", "s"), ("edit_run_p50_ms", "ms"),
                   ("edit_run_p90_ms", "ms"), ("edit_runs_per_s", "1/s"),
                   ("peak_rss_mb", "MB"), ("failed_frac", "fraction")],
    "widget_storm": [("setup_s", "s"), ("ds_p50_ms", "ms"),
                     ("ds_p99_ms", "ms"), ("ds_qps", "1/s"),
                     ("cache_hit_ratio", "fraction"), ("peak_rss_mb", "MB"),
                     ("failed_frac", "fraction")],
    "append_stream": [("setup_s", "s"), ("append_p50_ms", "ms"),
                      ("append_p90_ms", "ms"), ("fresh_p50_ms", "ms"),
                      ("fresh_p90_ms", "ms"), ("ds_p50_ms", "ms"),
                      ("ds_p99_ms", "ms"), ("ds_qps", "1/s"),
                      ("bench.gen_late_p99_ms", "ms"), ("peak_rss_mb", "MB"),
                      ("failed_frac", "fraction")],
}
# Layer times printed beside the per-layer JSON of a traced run.
LAYER_TABLE = [("cube.query_us", "us"), ("ops.query_ms", "ms"),
               ("io.append_parse_us", "us"), ("table.append_batch_us", "us"),
               ("dashboard.append_ms", "ms"), ("store.wal_append_ms", "ms"),
               ("bench.gen_late_p99_ms", "ms")]


def run(workload, trace, *extra, cwd=ROOT, seconds="2"):
    command = [sys.executable, "e2ebench/run.py", "--workload", workload,
               "--seed", "5", "--seconds", seconds, "--trace", trace]
    return subprocess.run(command + list(extra), cwd=cwd, capture_output=True,
                          text=True, timeout=900)


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


class BenchmarkTest(unittest.TestCase):

    def assert_printed(self, stdout, metrics):
        for name, unit in metrics:
            pattern = r"^\s+%s\s+\S+\s+%s$" % (re.escape(name), re.escape(unit))
            self.assertRegex(stdout, re.compile(pattern, re.M),
                             "%s [%s] not printed" % (name, unit))

    def assert_metrics(self, result, spec):
        self.assertEqual(sorted(result), sorted(m["name"] for m in spec))
        for m in spec:
            self.assertEqual(result[m["name"]]["unit"], m["unit"], m["name"])

    def check_workload(self, workload):
        proc = run(workload, "0")
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        result = result_of(proc)
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)
        self.assert_metrics(result["metrics"], SPEC["end_to_end"])
        for m in SPEC["end_to_end"]:
            self.assertGreater(result["metrics"][m["name"]]["value"], 0, m)
        self.assert_printed(proc.stdout, NAMED[workload])
        self.assertIn('"revision"', proc.stdout)

        traced = run(workload, "1")
        self.assertEqual(traced.returncode, 0, traced.stdout + traced.stderr)
        result = result_of(traced)
        self.assertTrue(result["correct"])
        self.assert_metrics(result["metrics"], SPEC["per_layer"])
        self.assert_printed(traced.stdout,
                            [(m["name"], m["unit"]) for m in SPEC["per_layer"]])
        self.assert_printed(traced.stdout, LAYER_TABLE)

        planted = run(workload, "0", "--plant-wrong")
        self.assertNotEqual(planted.returncode, 0, planted.stdout)
        result = result_of(planted)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertIn("FAIL: oracle", planted.stdout)

    def test_ipl_author(self):
        self.check_workload("ipl_author")

    def test_widget_storm(self):
        self.check_workload("widget_storm")

    def test_append_stream(self):
        self.check_workload("append_stream")

    def test_refuses_without_program_sources(self):
        bare = os.path.join(ROOT, ".bench_work", "bare-%d" % os.getpid())
        try:
            os.makedirs(bare)
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "e2ebench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run("ipl_author", "0", cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
