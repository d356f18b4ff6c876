#!/usr/bin/env python3
"""Tests of the benchmark's own pieces.

    python3 perfbench/test_perfbench.py

Covers the percentile and quartile maths, the result-line schema
check, the metric derivations and layer-sum checks, and that the inputs
a workload generates depend on its seed and on nothing else. The seed
tests build the perfbench binary if it is not built yet.
"""

import collections
import copy
import json
import os
import statistics
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import stats  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)


class Percentiles(unittest.TestCase):
    def test_linear_between_closest_ranks(self):
        xs = [4.0, 1.0, 3.0, 2.0]
        self.assertEqual(stats.percentile(xs, 0), 1.0)
        self.assertEqual(stats.percentile(xs, 100), 4.0)
        self.assertAlmostEqual(stats.percentile(xs, 50), 2.5)
        self.assertAlmostEqual(stats.percentile(xs, 90), 3.7)
        self.assertAlmostEqual(stats.median(range(1, 12)), 6.0)

    def test_single_sample_and_bad_input(self):
        self.assertEqual(stats.percentile([7.0], 90), 7.0)
        with self.assertRaises(ValueError):
            stats.percentile([], 50)
        with self.assertRaises(ValueError):
            stats.percentile([1.0], 101)

    def test_quartile_spread_uses_statistics_quantiles(self):
        xs = list(range(1, 11))
        q1, q2, q3 = statistics.quantiles(xs, n=4)
        self.assertEqual((q1, q2, q3), (2.75, 5.5, 8.25))
        self.assertAlmostEqual(stats.quartile_spread(xs), 1.0)
        self.assertEqual(stats.quartile_spread([3.0] * 10), 0.0)

    def test_windowed_rate(self):
        # Windows of >= 1 s: [0.5, 0.5] -> 2 work/s, [0.25 x 4] -> 4 work/s,
        # [3.0] -> 1/3 work/s; the short tail [0.1] joins the last window.
        ops = [0.5, 0.5, 0.25, 0.25, 0.25, 0.25, 3.0, 0.1]
        self.assertAlmostEqual(stats.windowed_rate(ops, 1.0), 2.0)
        self.assertAlmostEqual(stats.windowed_rate([0.2, 0.3], 2.0), 8.0)
        slow_second = [0.01] * 300 + [0.1] * 10
        self.assertAlmostEqual(stats.windowed_rate(slow_second, 1.0), 100.0)

    def test_median_shift_respects_direction(self):
        self.assertAlmostEqual(stats.median_shift([10, 10], [11, 11], "lower"),
                               0.1)
        self.assertAlmostEqual(stats.median_shift([10, 10], [11, 11], "higher"),
                               -0.1)


class Schema(unittest.TestCase):
    def test_result_line(self):
        units = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
        good = {"correct": True, "attempted": 3, "failed": 0,
                "metrics": {n: {"value": 1.5, "unit": u}
                            for n, u in units.items()}}
        self.assertEqual(stats.check_result(good, units), [])

        def broken(edit):
            r = copy.deepcopy(good)
            edit(r)
            return stats.check_result(r, units)

        self.assertTrue(broken(lambda r: r.update(extra=1)))
        self.assertTrue(broken(lambda r: r.update(attempted=0)))
        self.assertTrue(broken(lambda r: r.update(failed=1.5)))
        self.assertTrue(broken(lambda r: r.update(correct="yes")))
        self.assertTrue(broken(lambda r: r["metrics"].pop("setup_s")))
        self.assertTrue(broken(lambda r: r["metrics"]["setup_s"].update(
            value=float("nan"))))
        self.assertTrue(broken(lambda r: r["metrics"]["setup_s"].update(
            unit="ms")))


class Derivations(unittest.TestCase):
    def test_end_to_end_metrics(self):
        raw = {"setup_s": [0.3, 0.1, 0.2], "op_s": [0.01, 0.03, 0.02],
               "work": 600.0, "peak_rss_mib": 12.5}
        m = run.end_to_end(raw)
        self.assertEqual(set(m), {x["name"] for x in BENCH["end_to_end"]})
        self.assertAlmostEqual(m["setup_s"], 0.2)
        self.assertAlmostEqual(m["work_per_s"], 10000.0)  # one window
        self.assertAlmostEqual(m["op_p50_ms"], 20.0)
        self.assertEqual(m["peak_rss_mib"], 12.5)

    def test_per_layer_covers_benchmark_json(self):
        raw = {
            "op_s": [0.02], "traced_op_s": [0.021],
            "spans": collections.defaultdict(
                lambda: {"dur": [0.004], "covered": [0.001]}),
            "values": collections.defaultdict(lambda: [2.0]),
        }
        m = run.per_layer(raw)
        self.assertEqual(set(m), {x["name"] for x in BENCH["per_layer"]})
        self.assertAlmostEqual(m["obs.trace_overhead_frac"], 0.05)
        self.assertAlmostEqual(m["swm.stages_ms"], 4.0)
        self.assertAlmostEqual(m["bench.op_p90_ms"], 20.0)

    def test_layer_sum_check_fails_outside_the_noise_floor(self):
        def swm_raw(stages, apply):
            return {"op_s": [0.020, 0.020, 0.021],
                    "spans": {"swm.stages": {"dur": [stages]},
                              "swm.apply": {"dur": [apply]}}}

        label, ratio, within = run.layer_sum_check(
            "swm_f64_large", swm_raw(0.016, 0.004), 0.1)
        self.assertEqual(label, "swm.stages_ms + swm.apply_ms")
        self.assertAlmostEqual(ratio, 1.0)
        self.assertTrue(within)
        _, ratio, within = run.layer_sum_check(
            "swm_f64_large", swm_raw(0.012, 0.002), 0.1)
        self.assertAlmostEqual(ratio, 0.7)
        self.assertFalse(within)
        des = {"op_s": [0.060],
               "values": {"des.build_pass_s": [0.010],
                          "des.simulate_pass_s": [0.080]}}
        self.assertFalse(run.layer_sum_check("des_fig3", des, 0.1)[2])
        self.assertIsNone(run.layer_sum_check("ensemble_mixed", des, 0.1))


class Seeds(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.exe = run.build()[1]

    def digest(self, workload, seed):
        out = subprocess.run([self.exe, "--digest", workload, "--seed",
                              str(seed)], check=True, stdout=subprocess.PIPE,
                             text=True)
        return out.stdout.strip()

    def test_same_seed_same_inputs_other_seed_other_inputs(self):
        for w in (x["name"] for x in BENCH["workloads"]):
            with self.subTest(workload=w):
                a = self.digest(w, 11)
                self.assertEqual(a, self.digest(w, 11))
                self.assertNotEqual(a, self.digest(w, 12))


if __name__ == "__main__":
    unittest.main()
