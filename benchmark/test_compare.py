"""Unit tests for benchmark/compare.py: one case per verdict, both metric
directions, and the exit code.

    python3 -m unittest discover -s benchmark -p 'test_*.py'
"""
import json
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import compare  # noqa: E402

STEADY = [100.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3, 99.7,
          100.4]


def report(values, metric="events_per_s", seeds=None):
    seeds = seeds or range(1, len(values) + 1)
    return {"workloads": {"w": {"runs": [
        {"seed": s, "metrics": {metric: {"value": v, "unit": "1/s"}}}
        for s, v in zip(seeds, values)]}}}


SPEC = {"end_to_end": [
    {"name": "events_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
    {"name": "latency_ms", "unit": "ms", "better": "lower", "bound": 0.1}]}


class VerdictTest(unittest.TestCase):
    def test_unchanged_within_bound(self):
        new = [v * 0.97 for v in STEADY]
        self.assertEqual(compare.verdict(STEADY, new, "higher", 0.1),
                         "unchanged")

    def test_regression_higher_is_better(self):
        new = [v * 0.8 for v in STEADY]
        self.assertEqual(compare.verdict(STEADY, new, "higher", 0.1),
                         "regression")

    def test_regression_lower_is_better(self):
        new = [v * 1.2 for v in STEADY]
        self.assertEqual(compare.verdict(STEADY, new, "lower", 0.1),
                         "regression")
        self.assertEqual(compare.verdict(STEADY, [v * 0.8 for v in STEADY],
                                         "lower", 0.1), "unchanged")

    def test_unresolved_when_spread_exceeds_bound(self):
        noisy = [60.0, 80.0, 100.0, 120.0, 140.0]
        self.assertEqual(compare.verdict(STEADY, noisy, "higher", 0.1),
                         "unresolved")

    def test_wide_spread_regression_when_every_new_run_is_worse(self):
        noisy = [30.0, 45.0, 60.0, 75.0, 90.0]
        self.assertEqual(compare.verdict(STEADY, noisy, "higher", 0.1),
                         "regression")
        self.assertEqual(compare.verdict(STEADY, [200 - v for v in noisy],
                                         "lower", 0.1), "regression")

    def test_zero_bound_any_move_counts(self):
        f1 = [0.72] * 10
        pairs = lambda new: list(zip(f1, new))
        self.assertEqual(compare.verdict(f1, f1, "higher", 0.0, pairs(f1)),
                         "unchanged")
        lower = [0.7199] * 10
        self.assertEqual(compare.verdict(f1, lower, "higher", 0.0,
                                         pairs(lower)), "regression")
        higher = [0.7201] * 10
        self.assertEqual(compare.verdict(f1, higher, "higher", 0.0,
                                         pairs(higher)), "gain")

    def test_wide_spread_resolved_when_every_new_run_is_better(self):
        noisy = [200.0, 260.0, 300.0, 340.0, 400.0] * 2
        pairs = list(zip(STEADY, noisy))
        self.assertEqual(compare.verdict(STEADY, noisy, "higher", 0.1, pairs),
                         "gain")

    def test_gain_needs_nine_tenths_of_pairs(self):
        better = [v * 1.05 for v in STEADY]
        self.assertEqual(compare.verdict(STEADY, better, "higher", 0.1,
                                         list(zip(STEADY, better))), "gain")
        nine = better[:9] + [STEADY[9] * 0.99]
        self.assertEqual(compare.verdict(STEADY, nine, "higher", 0.1,
                                         list(zip(STEADY, nine))), "gain")
        eight = better[:8] + [v * 0.99 for v in STEADY[8:]]
        self.assertEqual(compare.verdict(STEADY, eight, "higher", 0.1,
                                         list(zip(STEADY, eight))),
                         "unchanged")

    def test_no_gain_from_fewer_than_ten_pairs(self):
        better = [v * 1.05 for v in STEADY[:5]]
        self.assertEqual(compare.verdict(STEADY[:5], better, "higher", 0.1,
                                         list(zip(STEADY, better))),
                         "unchanged")

    def test_gain_needs_median_move_beyond_base_quartiles(self):
        barely = [v + 0.01 for v in STEADY]
        self.assertEqual(compare.verdict(STEADY, barely, "higher", 0.1,
                                         list(zip(STEADY, barely))),
                         "unchanged")

    def test_no_gain_without_pairs(self):
        better = [v * 1.05 for v in STEADY]
        self.assertEqual(compare.verdict(STEADY, better, "higher", 0.1),
                         "unchanged")


class CompareTest(unittest.TestCase):
    def test_pairs_by_seed_and_skips_missing_metrics(self):
        base = report(STEADY)
        new = report([v * 1.05 for v in reversed(STEADY)],
                     seeds=range(len(STEADY), 0, -1))
        rows = compare.compare(base, new, SPEC)
        self.assertEqual([(r["metric"], r["verdict"]) for r in rows],
                         [("events_per_s", "gain")])

    def test_main_exit_code(self):
        with tempfile.TemporaryDirectory() as tmp:
            paths = {}
            for name, doc in (("spec", SPEC), ("base", report(STEADY)),
                              ("same", report(STEADY)),
                              ("worse", report([v * 0.5 for v in STEADY])),
                              ("noisy", report([60.0, 80.0, 100.0, 120.0,
                                                140.0]))):
                paths[name] = Path(tmp) / f"{name}.json"
                paths[name].write_text(json.dumps(doc))
            spec = ["--spec", str(paths["spec"])]
            for new, code in (("same", 0), ("worse", 1), ("noisy", 1)):
                self.assertEqual(compare.main(
                    [str(paths["base"]), str(paths[new])] + spec), code)


if __name__ == "__main__":
    unittest.main()
