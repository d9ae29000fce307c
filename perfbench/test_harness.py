"""Self-tests of the benchmark harness (no workload is run).

    python3 -m pytest perfbench/test_harness.py
    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import json
import statistics
import sys
import types
import unittest
from pathlib import Path

import gates
import run
import stats
import tracing
import worker

HERE = Path(__file__).resolve().parent


class StatsTest(unittest.TestCase):
    def test_median_and_quartiles_follow_statistics_quantiles(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
        q1, med, q3 = stats.quartiles(values)
        self.assertEqual(med, statistics.median(values))
        self.assertEqual([q1, med, q3], statistics.quantiles(values, n=4))
        self.assertEqual(stats.quartiles([2.5]), (2.5, 2.5, 2.5))
        s = stats.summary(values)
        self.assertEqual((s["median"], s["n"]), (4.0, 7))

    def test_tail_percentile_needs_ten_samples_beyond(self):
        self.assertIsNone(stats.tail_percentile(list(range(19))))
        self.assertEqual(stats.tail_percentile(list(range(20)))[0], 50.0)
        p, value = stats.tail_percentile([float(i) for i in range(1, 101)])
        self.assertEqual(p, 90.0)
        self.assertAlmostEqual(value, 90.1)
        self.assertEqual(stats.tail_percentile(list(range(999)))[0], 90.0)
        self.assertEqual(stats.tail_percentile(list(range(1000)))[0], 99.0)
        self.assertEqual(stats.tail_percentile(list(range(10000)))[0], 99.9)


class MetricNameTest(unittest.TestCase):
    def test_pattern(self):
        for good in ("wall_s", "solver.us_per_rhs_eval", "a-b.c_9", "9lives", "x" * 64):
            self.assertTrue(stats.valid_metric_name(good), good)
        for bad in ("", "_x", ".x", "wall s", "wall_s!", "x" * 65, "a/b"):
            self.assertFalse(stats.valid_metric_name(bad), bad)

    def test_benchmark_names_are_valid_and_unique(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
        names = [e["name"] for key in ("workloads", "end_to_end", "per_layer") for e in spec[key]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertTrue(stats.valid_metric_name(name), name)
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(worker.WORKLOADS))


class TimeToStderrTest(unittest.TestCase):
    def test_equals_wall_on_reference_inputs(self):
        stderrs = gates.load_reference()["mc-bbm"]["stderrs"]
        ratio = gates.variance_ratio(list(stderrs), stderrs)
        self.assertEqual(ratio, 1.0)
        self.assertEqual(run.time_to_stderr(6.25, ratio), 6.25)
        self.assertEqual(run.time_to_stderr(6.25, None), 6.25)

    def test_reference_speed_scaling(self):
        self.assertAlmostEqual(run.at_reference_speed(6.0, run.REFERENCE_YARDSTICK_S), 6.0)
        self.assertAlmostEqual(run.at_reference_speed(6.0, 2 * run.REFERENCE_YARDSTICK_S), 3.0)

    def test_halving_every_error_quarters_the_time(self):
        ratio = gates.variance_ratio([0.5, 1.0, 2.0], [1.0, 2.0, 4.0])
        self.assertAlmostEqual(run.time_to_stderr(8.0, ratio), 2.0)


class RunTest(unittest.TestCase):
    def test_speed_is_the_yardstick_around_a_sample(self):
        measured = run.Run(10)
        measured.yardstick_calls = [[1.0, 1.0], [3.0, 3.0], [6.0]]
        self.assertEqual(measured.speed(-1), 1.0)     # before the first yardstick
        self.assertEqual(measured.speed(0), 2.0)
        self.assertEqual(measured.speed(1), 4.0)
        self.assertEqual(measured.speed(2), 6.0)      # after the last one
        measured.yardstick_calls = [[2.0], [], []]    # a failed yardstick
        self.assertEqual(measured.speed(1), 2.0)

    def test_run_ends_within_its_limit(self):
        seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
        self.assertLess(seconds + run.OVERRUN_S, 180)
        self.assertLessEqual(run.Run(seconds).time_left(), seconds + run.OVERRUN_S)
        self.assertEqual(run.Run(-1000).time_left(), 1.0)


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


class SpanTest(unittest.TestCase):
    # root [0, 10] holds a [1, 4] (which holds a.x [2, 3]) and b [5, 9];
    # c [9.5, 12] starts inside root and is clipped to it.
    TREE = [["root", 0.0, 10.0, -1], ["a.f", 1.0, 4.0, 0], ["a.x", 2.0, 3.0, 1],
            ["b.g", 5.0, 9.0, 0], ["c.h", 9.5, 12.0, 0]]

    def test_self_time_arithmetic(self):
        self.assertEqual(tracing.self_times(self.TREE), [2.5, 2.0, 1.0, 4.0, 2.5])
        self.assertEqual(sum(tracing.self_times(self.TREE[:4])), 10.0)

    def test_overlapping_children_are_counted_once(self):
        spans = [["root", 0.0, 10.0, -1], ["a", 1.0, 6.0, 0], ["b", 4.0, 8.0, 0]]
        self.assertEqual(tracing.self_times(spans)[0], 3.0)

    def test_totals_by_name_and_layer(self):
        by_name, by_layer = tracing.span_totals(self.TREE)
        self.assertEqual(by_name["a.f"], {"calls": 1, "s": 3.0, "self_s": 2.0})
        # a.x sits inside a.f, so layer "a" counts only the outer span
        self.assertEqual(by_layer["a"], 3.0)

    def test_tracer_nests_calls_and_generator_steps(self):
        tracer = tracing.Tracer(clock=FakeClock(range(100)))

        def gen():
            yield from ([1, 2], [3])

        inner = tracer.wrap("m.inner", lambda: 7,
                            on_return=lambda a, k, r: tracer.count("m.results", r))
        items = tracer.wrap_generator("m.gen", gen, on_item=lambda it: tracer.count("m.items", len(it)))

        def outer():
            inner()
            return [item for item in items()]

        self.assertEqual(tracer.wrap("m.outer", outer)(), [[1, 2], [3]])
        names = [s[0] for s in tracer.spans]
        self.assertEqual(names, ["m.outer", "m.inner", "m.gen", "m.gen", "m.gen"])
        self.assertTrue(all(parent == 0 for _, _, _, parent in tracer.spans[1:]))
        self.assertEqual(dict(tracer.counts), {"m.results": 7, "m.items": 3})
        self.assertEqual(sum(tracing.self_times(tracer.spans)),
                         tracer.spans[0][2] - tracer.spans[0][1])

    def test_patch_reaches_names_imported_elsewhere(self):
        def original():
            return "done"
        defining = types.ModuleType("fakepkg.defs")
        caller = types.ModuleType("fakepkg.user")
        outsider = types.ModuleType("otherpkg")
        for module in (defining, caller, outsider):
            module.original = original
            sys.modules[module.__name__] = module
        try:
            tracer = tracing.Tracer()
            replaced = tracing.patch_everywhere(
                original, tracer.wrap("defs.original", original), "fakepkg")
            self.assertEqual(replaced, 2)
            self.assertEqual(caller.original(), "done")
            self.assertEqual(len(tracer.spans), 1)
            self.assertIs(outsider.original, original)
        finally:
            for module in (defining, caller, outsider):
                del sys.modules[module.__name__]


class LayerMetricsTest(unittest.TestCase):
    def test_coverage_and_self_sum_checks(self):
        spans = [["bench.work", 0.0, 2.0, -1], ["picard.remainder_growth_scan", 0.0, 2.0, 0],
                 ["solver.evolve_array", 0.5, 1.5, 1]]
        result = {"spans": spans, "counts": {"solver.rhs_evals": 4000}, "wall_s": 2.0}
        metrics, problems = run.layer_metrics("pell-scan", result)
        self.assertEqual(metrics["solver.us_per_rhs_eval"], 250.0)
        self.assertEqual(metrics["picard.remainder_growth_scan.self_s"], 1.0)
        missing = {p.split()[2] for p in problems}
        self.assertEqual(missing, set(worker.PellScan.spans)
                         - {"picard.remainder_growth_scan", "solver.evolve_array"})
        _, problems = run.layer_metrics("pell-scan", dict(result, wall_s=3.0))
        self.assertTrue(any("self times" in p for p in problems))

    def test_every_per_layer_metric_is_declared(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
        result = {"spans": [["bench.work", 0.0, 1.0, -1]], "counts": {}, "wall_s": 1.0}
        metrics, _ = run.layer_metrics("analytic", result)
        declared = {e["name"] for e in spec["per_layer"]}
        self.assertEqual(set(metrics) | {"trace.overhead_frac"}, declared)


if __name__ == "__main__":
    unittest.main()
