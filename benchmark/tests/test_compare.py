"""Verdicts of compare.py on synthetic result sets."""

import json
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402

SPEC = {
    "workloads": [{"name": "w1", "why": "x"}, {"name": "w2", "why": "y"}],
    "end_to_end": [
        {"name": "lat_ms", "unit": "ms", "better": "lower", "bound": 0.1},
        {"name": "rps", "unit": "req/s", "better": "higher", "bound": 0.1},
    ],
    "per_layer": [{"name": "layer_ms", "unit": "ms", "better": "lower"}],
}


def doc(workload, seed, lat, rps, failed=0):
    return {"workload": workload, "seed": seed, "trace": 0,
            "result": {"correct": failed == 0, "attempted": 100,
                       "failed": failed,
                       "metrics": {"lat_ms": {"value": lat, "unit": "ms"},
                                   "rps": {"value": rps,
                                           "unit": "req/s"}}}}


def steady(base, n=10, jitter=0.01):
    """n values within +-jitter of base, alternating around it."""
    return [base * (1 + jitter * (1 if i % 2 else -1) * (i % 3) / 2)
            for i in range(n)]


class VerdictTest(unittest.TestCase):
    def test_unchanged_within_bound(self):
        a, b = steady(10.0), steady(10.3)
        self.assertEqual(compare.verdict(a, b, 0.1, True,
                                         list(zip(a, b))), "unchanged")

    def test_worse_beyond_bound_lower_is_better(self):
        a, b = steady(10.0), steady(12.0)
        self.assertEqual(compare.verdict(a, b, 0.1, True), "worse")

    def test_worse_beyond_bound_higher_is_better(self):
        a, b = steady(1000.0), steady(850.0)
        self.assertEqual(compare.verdict(a, b, 0.1, False), "worse")

    def test_wide_spread_is_unresolved(self):
        a = [5.0, 8.0, 10.0, 12.0, 15.0, 6.0, 14.0, 9.0, 11.0, 10.0]
        b = [x * 1.02 for x in reversed(a)]
        self.assertEqual(compare.verdict(a, b, 0.1, True), "unresolved")

    def test_better_needs_nine_of_ten_pairs(self):
        a = steady(10.0)
        b = [x * 0.9 for x in a]
        pairs = list(zip(a, b))
        self.assertEqual(compare.verdict(a, b, 0.1, True, pairs), "better")
        # Two of ten pairs lost: the gain is not claimed.
        b_mixed = b[:8] + [a[8] * 1.01, a[9] * 1.01]
        self.assertEqual(compare.verdict(a, b_mixed, 0.1, True,
                                         list(zip(a, b_mixed))),
                         "unchanged")

    def test_better_needs_ten_pairs(self):
        a = steady(10.0, n=5)
        b = [x * 0.9 for x in a]
        self.assertEqual(compare.verdict(a, b, 0.1, True,
                                         list(zip(a, b))), "unchanged")

    def test_gain_within_parent_spread_is_not_better(self):
        # B wins every pair but by less than A's interquartile range.
        a = [9.6, 10.4] * 5
        b = [x - 0.05 for x in a]
        self.assertEqual(compare.verdict(a, b, 0.1, True,
                                         list(zip(a, b))), "unchanged")

    def test_every_run_better_overrides_wide_spread(self):
        a = [20.0, 26.0, 22.0, 28.0, 24.0, 21.0, 27.0, 23.0, 25.0, 29.0]
        b = [x - 12.0 for x in a]
        self.assertEqual(compare.verdict(a, b, 0.1, True,
                                         list(zip(a, b))), "better")


class ResultFileTest(unittest.TestCase):
    def test_accepts_matching_metrics(self):
        compare.check_result(doc("w1", 1, 10.0, 100.0), SPEC, "x")

    def test_rejects_renamed_metric(self):
        d = doc("w1", 1, 10.0, 100.0)
        d["result"]["metrics"]["latency"] = d["result"]["metrics"].pop(
            "lat_ms")
        with self.assertRaises(ValueError):
            compare.check_result(d, SPEC, "x")

    def test_rejects_changed_unit(self):
        d = doc("w1", 1, 10.0, 100.0)
        d["result"]["metrics"]["lat_ms"]["unit"] = "s"
        with self.assertRaises(ValueError):
            compare.check_result(d, SPEC, "x")

    def test_traced_runs_carry_per_layer_metrics(self):
        d = {"workload": "w1", "seed": 1, "trace": 1,
             "result": {"correct": True, "attempted": 1, "failed": 0,
                        "metrics": {"layer_ms": {"value": 1.0,
                                                 "unit": "ms"}}}}
        compare.check_result(d, SPEC, "x")
        d["trace"] = 0
        with self.assertRaises(ValueError):
            compare.check_result(d, SPEC, "x")

    def test_load_set_rejects_foreign_files(self):
        results = BENCH / "results"
        results.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=results) as tmp:
            good = doc("w1", 1, 10.0, 100.0)
            (Path(tmp) / "good.json").write_text(json.dumps(good))
            self.assertEqual(len(compare.load_set(tmp, SPEC)["w1"]), 1)
            bad = doc("w1", 2, 10.0, 100.0)
            bad["result"]["metrics"]["rps"]["unit"] = "1/s"
            (Path(tmp) / "bad.json").write_text(json.dumps(bad))
            with self.assertRaises(ValueError):
                compare.load_set(tmp, SPEC)


class CompareTest(unittest.TestCase):
    def test_one_row_per_workload_and_metric(self):
        set_a = {w: [doc(w, s, 10.0 + s * 0.01, 100.0) for s in range(10)]
                 for w in ("w1", "w2")}
        set_b = {"w1": [doc("w1", s, 10.0 + s * 0.01, 100.0)
                        for s in range(10)],
                 "w2": [doc("w2", s, 13.0, 100.0, failed=1)
                        for s in range(10)]}
        rows, failures = compare.compare(set_a, set_b, SPEC)
        verdicts = {(r[0], r[1]): r[-1] for r in rows}
        self.assertEqual(len(rows), 4)
        self.assertEqual(verdicts[("w1", "lat_ms")], "unchanged")
        self.assertEqual(verdicts[("w2", "lat_ms")], "worse")
        self.assertEqual(verdicts[("w2", "rps")], "unchanged")
        self.assertIn(("w2", 0, 10), failures)


if __name__ == "__main__":
    unittest.main()
