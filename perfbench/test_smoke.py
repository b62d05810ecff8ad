#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at a tiny size, both modes.

    python3 perfbench/test_smoke.py

Checks that every metric is printed exactly once with its unit, that the
JSON line carries exactly the metrics BENCHMARK.json lists, and that the
traced first-layer, tail and glue times add up to the classify time.
"""
import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = json.load(open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")))
TABLE_LINE = re.compile(r"^  (\S+)\s+(-?[0-9.]+(?:e[-+]?\d+)?)\s+(\S+)")
# Printed by every untraced run although BENCHMARK.json does not list them:
# wall-clock figures follow host steal and failed_pct is 0, so none of these
# is gated.
EXTRA_END_TO_END = {"p50_ms": "ms", "p99_ms": "ms", "sustained_fps": "1/s",
                    "failed_pct": "%", "host.steal_pct": "%",
                    "sensor.gen_lag_p99_ms": "ms"}
# Share of the traced classify time the glue (classify - first - tail) may
# take.
MAX_GLUE_SHARE = 0.05


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise AssertionError("%s trace=%d exited %d\n%s" % (
            workload, trace, proc.returncode, proc.stderr[-3000:]))
    lines = proc.stdout.splitlines()
    table = {}
    for line in lines[:-1]:
        match = TABLE_LINE.match(line)
        if match:
            name, value, unit = match.groups()
            table.setdefault(name, []).append((float(value), unit))
    return table, json.loads(lines[-1])


class Smoke(unittest.TestCase):
    def check(self, table, result, listed, extra):
        expected = {m["name"]: m["unit"] for m in listed}
        for name, unit in {**expected, **extra}.items():
            self.assertEqual(len(table.get(name, [])), 1,
                             "%s printed %d times" % (name, len(table.get(name, []))))
            self.assertEqual(table[name][0][1], unit, name)
        self.assertEqual(list(result["metrics"]), list(expected))
        for name, metric in result["metrics"].items():
            self.assertEqual(metric["unit"], expected[name], name)
            self.assertIsInstance(metric["value"], (int, float), name)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)

    def test_workloads(self):
        for workload in [w["name"] for w in BENCHMARK["workloads"]]:
            with self.subTest(workload=workload, trace=0):
                table, result = run(workload, 0)
                self.check(table, result, BENCHMARK["end_to_end"], EXTRA_END_TO_END)
            with self.subTest(workload=workload, trace=1):
                table, result = run(workload, 1)
                self.check(table, result, BENCHMARK["per_layer"], {})
                value = {k: v[0][0] for k, v in table.items()}
                classify = value["runtime.classify_us_per_frame"]
                first = value["hybrid.first_layer_us_per_frame"]
                tail = value["nn.tail_us_per_frame"]
                glue = value["runtime.glue_us_per_frame"]
                self.assertGreater(classify, 0.0)
                self.assertAlmostEqual(first + tail + glue, classify,
                                       delta=1e-3 * classify)
                self.assertGreaterEqual(glue, 0.0)
                self.assertLessEqual(glue, MAX_GLUE_SHARE * classify)


if __name__ == "__main__":
    unittest.main()
