#!/usr/bin/env python3
"""tools/check_bench_json.py: the generic gate evaluator accepts a
consistent file and rejects a failing row, a `pass` that disagrees with
the rows, a row naming a missing key and a file that lacks a required
gate."""

import importlib.util
import json
import os
import tempfile
import unittest

_SPEC = importlib.util.spec_from_file_location(
    "check_bench_json",
    os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tools",
                 "check_bench_json.py"))
checker = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(checker)

GOOD = {
    "benchmark": "service_throughput", "schema_version": 2, "quick": 1,
    "serial_rps": 10.0, "batched_rps": 12.5, "errors": 0, "lost": 0,
    "duplicated": 0, "verify_mismatches": 0, "verified": "true",
    "gate_errors": "errors == 0", "gate_lost": "lost == 0",
    "gate_duplicated": "duplicated == 0",
    "gate_verify_mismatches": "verify_mismatches == 0",
    "gate_faster": "batched_rps > serial_rps",
    "pass": 1,
}


class CheckBenchJson(unittest.TestCase):
    def errors(self, data, extra_rows=()):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "BENCH_test.json")
            with open(path, "w", encoding="utf-8") as f:
                json.dump(data, f)
            return checker.check(path, extra_rows)

    def assertRejected(self, data, needle, extra_rows=()):
        errors = self.errors(data, extra_rows)
        self.assertTrue(any(needle in e for e in errors), errors)

    def test_consistent_file_passes(self):
        self.assertEqual(self.errors(GOOD), [])

    def test_failing_row(self):
        self.assertRejected({**GOOD, "lost": 2, "pass": 0},
                            "gate lost failed")

    def test_pass_disagrees_with_rows(self):
        self.assertRejected({**GOOD, "pass": 0}, "disagrees")
        self.assertRejected({**GOOD, "errors": 1}, "disagrees")

    def test_row_naming_missing_key(self):
        self.assertRejected({**GOOD, "gate_faster": "batched_rps > nosuch"},
                            "missing or non-numeric key")

    def test_missing_required_gate(self):
        data = dict(GOOD)
        del data["gate_duplicated"]
        self.assertRejected(data, "missing required gate 'duplicated'")

    def test_required_gates_expand_per_scenario(self):
        data = {"benchmark": "scenarios", "schema_version": 1, "quick": 1,
                "scenario_list": "burst", "burst_lost": 0,
                "gate_burst_lost": "burst_lost == 0", "pass": 1}
        self.assertRejected(data, "missing required gate 'burst_errors'")

    def test_invocation_gate(self):
        self.assertEqual(self.errors(GOOD, ["batched_rps > 12"]), [])
        self.assertRejected(GOOD, "gate --gate failed",
                            ["batched_rps > 20"])


if __name__ == "__main__":
    unittest.main()
