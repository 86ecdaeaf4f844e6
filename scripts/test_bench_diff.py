#!/usr/bin/env python3
"""Smoke tests for scripts/bench_diff.py (run by CTest as `bench_diff_py`).

bench_diff.py is the regression gate behind the bench-release CI job's
baseline diff and its telemetry, trace, health and perf layer-overhead A/B
steps, so its exit-code contract IS the gate: these tests pin the join semantics
(scenario/series/row), the mean and p50/p99 thresholds, the one-sided-scenario
warning path, and the --fail-on-regress / --fail-over exit codes.

Stdlib only (unittest + subprocess): the test must run on a bare python3 with
no pip installs.
"""

import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "bench_diff.py")


def make_doc(scenarios):
    """Builds a schema-1 document. `scenarios` maps name -> {series: [cells]}
    where each cell is (mean_seconds, throughput, p50, p99) or
    (mean_seconds, throughput) for cells without latency sampling."""
    doc = {"schema_version": 1, "scenarios": []}
    for name, series_map in scenarios.items():
        n_rows = max(len(cells) for cells in series_map.values())
        scenario = {
            "name": name,
            "rows": [{"label": str(i + 1)} for i in range(n_rows)],
            "series": [],
            "telemetry": [],
        }
        for series_name, cells in series_map.items():
            out_cells = []
            for cell in cells:
                c = {"mean_seconds": cell[0], "throughput_ops_per_sec": cell[1]}
                if len(cell) > 2:
                    c["latency_ns"] = {"p50": cell[2], "p99": cell[3]}
                out_cells.append(c)
            scenario["series"].append({"name": series_name, "cells": out_cells})
        doc["scenarios"].append(scenario)
    return doc


class BenchDiffTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def write(self, name, doc):
        path = os.path.join(self.tmp.name, name)
        with open(path, "w") as f:
            json.dump(doc, f)
        return path

    def run_diff(self, baseline, candidate, *flags):
        return subprocess.run(
            [sys.executable, SCRIPT, baseline, candidate, *flags],
            capture_output=True, text=True)

    # -- basics ------------------------------------------------------------

    def test_identical_documents_pass(self):
        doc = make_doc({"fig6a": {"scq": [(1.0, 1000.0, 50.0, 200.0)]}})
        base = self.write("base.json", doc)
        cand = self.write("cand.json", copy.deepcopy(doc))
        r = self.run_diff(base, cand, "--fail-on-regress")
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn("compared 1 cells", r.stdout)
        self.assertIn("no changes beyond threshold", r.stdout)

    def test_rejects_wrong_schema_version(self):
        doc = make_doc({"fig6a": {"scq": [(1.0, 1000.0)]}})
        doc["schema_version"] = 3
        base = self.write("base.json", doc)
        cand = self.write("cand.json", doc)
        r = self.run_diff(base, cand)
        self.assertNotEqual(r.returncode, 0)
        self.assertIn("unsupported schema_version", r.stderr + r.stdout)

    def test_accepts_schema_v2_and_mixed_versions(self):
        # A v1 baseline against a v2 candidate is the normal upgrade path.
        base_doc = make_doc({"s": {"q": [(1.0, 1000.0)]}})
        cand_doc = make_doc({"s": {"q": [(1.0, 1000.0)]}})
        cand_doc["schema_version"] = 2
        base = self.write("base.json", base_doc)
        cand = self.write("cand.json", cand_doc)
        r = self.run_diff(base, cand, "--fail-on-regress")
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn("compared 1 cells", r.stdout)

    # -- regression detection and exit codes -------------------------------

    def test_mean_regression_warns_but_exits_zero_by_default(self):
        base = self.write("base.json", make_doc({"s": {"q": [(1.0, 1000.0)]}}))
        cand = self.write("cand.json", make_doc({"s": {"q": [(1.5, 666.0)]}}))
        r = self.run_diff(base, cand, "--threshold", "10")
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn("regressions", r.stdout)
        self.assertIn("mean seconds", r.stdout)

    def test_fail_on_regress_makes_mean_regression_fatal(self):
        base = self.write("base.json", make_doc({"s": {"q": [(1.0, 1000.0)]}}))
        cand = self.write("cand.json", make_doc({"s": {"q": [(1.5, 666.0)]}}))
        r = self.run_diff(base, cand, "--threshold", "10", "--fail-on-regress")
        self.assertEqual(r.returncode, 1)
        self.assertIn("FAIL", r.stderr)

    def test_fail_over_trips_only_past_its_own_threshold(self):
        base = self.write("base.json", make_doc({"s": {"q": [(1.0, 1000.0)]}}))
        cand = self.write("cand.json", make_doc({"s": {"q": [(1.15, 870.0)]}}))
        # 15% worse: reported at --threshold 10, but under --fail-over 20.
        r = self.run_diff(base, cand, "--threshold", "10", "--fail-over", "20")
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn("regressions", r.stdout)
        # Same candidate against --fail-over 10 must trip.
        r = self.run_diff(base, cand, "--threshold", "10", "--fail-over", "10")
        self.assertEqual(r.returncode, 1)
        self.assertIn("exceeds --fail-over", r.stderr)

    def test_improvement_never_fails(self):
        base = self.write("base.json", make_doc({"s": {"q": [(2.0, 500.0)]}}))
        cand = self.write("cand.json", make_doc({"s": {"q": [(1.0, 1000.0)]}}))
        r = self.run_diff(base, cand, "--fail-on-regress", "--fail-over", "5")
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn("improvements", r.stdout)

    # -- latency percentiles -----------------------------------------------

    def test_p50_uses_main_threshold_p99_uses_its_own(self):
        base = self.write("base.json",
                          make_doc({"s": {"q": [(1.0, 1000.0, 100.0, 1000.0)]}}))
        # p50 +15% (beyond 10), p99 +15% (within its default 25) — only the
        # p50 line is a regression.
        cand = self.write("cand.json",
                          make_doc({"s": {"q": [(1.0, 1000.0, 115.0, 1150.0)]}}))
        r = self.run_diff(base, cand, "--threshold", "10", "--fail-on-regress")
        self.assertEqual(r.returncode, 1)
        self.assertIn("latency p50", r.stdout)
        self.assertNotIn("latency p99", r.stdout)

    def test_p99_threshold_flag_is_honoured(self):
        base = self.write("base.json",
                          make_doc({"s": {"q": [(1.0, 1000.0, 100.0, 1000.0)]}}))
        cand = self.write("cand.json",
                          make_doc({"s": {"q": [(1.0, 1000.0, 100.0, 1300.0)]}}))
        r = self.run_diff(base, cand, "--p99-threshold", "20", "--fail-on-regress")
        self.assertEqual(r.returncode, 1)
        self.assertIn("latency p99", r.stdout)

    # -- join semantics ----------------------------------------------------

    def test_scenario_only_in_one_side_warns_and_is_excluded(self):
        base = self.write("base.json", make_doc({"s": {"q": [(1.0, 1000.0)]}}))
        cand = self.write("cand.json", make_doc({
            "s": {"q": [(1.0, 1000.0)]},
            # 10x regression — but in a scenario the baseline lacks, so it
            # must be a warning, not a failure.
            "combining": {"comb-scq": [(10.0, 100.0)]},
        }))
        r = self.run_diff(base, cand, "--fail-on-regress", "--fail-over", "5")
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn("only in candidate", r.stderr)
        self.assertIn("compared 1 cells", r.stdout)

    # -- health section (optional, informational) --------------------------

    @staticmethod
    def add_health(doc, scenario_name, skip_rate, finding_polls):
        for scenario in doc["scenarios"]:
            if scenario["name"] == scenario_name:
                scenario["health"] = {
                    "schema_version": 1,
                    "polls": 10,
                    "finding_polls": finding_polls,
                    "queues": [{
                        "queue": "q", "ops": 1000, "cas_fail_ratio": 0.0,
                        "slot_skip_per_op": skip_rate, "faa_waste": 0.0,
                        "comb_engagement": 0.0, "comb_mean_batch": 0.0,
                        "seg_in_flight": 0,
                    }],
                    "findings": [],
                }

    def test_health_deltas_are_reported_but_never_fatal(self):
        base_doc = make_doc({"s": {"q": [(1.0, 1000.0)]}})
        cand_doc = copy.deepcopy(base_doc)
        self.add_health(base_doc, "s", 0.01, {"threshold_burn": 0})
        self.add_health(cand_doc, "s", 0.30, {"threshold_burn": 4})
        base = self.write("base.json", base_doc)
        cand = self.write("cand.json", cand_doc)
        r = self.run_diff(base, cand, "--fail-on-regress", "--fail-over", "5")
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn("health rate changes", r.stdout)
        self.assertIn("slot_skip_per_op: 0.01 -> 0.3", r.stdout)
        self.assertIn("health finding activity changes", r.stdout)
        self.assertIn("threshold_burn: active 0 -> 4 poll(s)", r.stdout)

    def test_missing_health_section_is_tolerated(self):
        # A pre-health baseline diffed against a --health candidate: the
        # section is one-sided, so no health lines and no crash.
        base_doc = make_doc({"s": {"q": [(1.0, 1000.0)]}})
        cand_doc = copy.deepcopy(base_doc)
        self.add_health(cand_doc, "s", 0.30, {"threshold_burn": 4})
        base = self.write("base.json", base_doc)
        cand = self.write("cand.json", cand_doc)
        r = self.run_diff(base, cand, "--fail-on-regress")
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertNotIn("health rate changes", r.stdout)

    # -- perf section (schema v2, optional, informational) ------------------

    @staticmethod
    def add_perf(doc, scenario_name, series_name, cell_perfs,
                 backend=("perf_event", True, "")):
        """Attaches per-cell perf dicts and the scenario backend record, and
        bumps the document to schema v2 (the section only exists there)."""
        doc["schema_version"] = 2
        for scenario in doc["scenarios"]:
            if scenario["name"] != scenario_name:
                continue
            name, available, reason = backend
            scenario["perf"] = {"backend": name, "available": available,
                                "reason": reason}
            for series in scenario["series"]:
                if series["name"] == series_name:
                    for cell, perf in zip(series["cells"], cell_perfs):
                        if perf is not None:
                            cell["perf"] = perf

    def test_perf_deltas_are_reported_but_never_fatal(self):
        base_doc = make_doc({"s": {"q": [(1.0, 1000.0)]}})
        cand_doc = copy.deepcopy(base_doc)
        self.add_perf(base_doc, "s", "q",
                      [{"ops": 1000, "cycles_per_op": 300.0,
                        "llc_miss_per_op": 0.2, "ipc": 1.2}])
        self.add_perf(cand_doc, "s", "q",
                      [{"ops": 1000, "cycles_per_op": 450.0,
                        "llc_miss_per_op": 0.8, "ipc": 0.9}])
        base = self.write("base.json", base_doc)
        cand = self.write("cand.json", cand_doc)
        r = self.run_diff(base, cand, "--fail-on-regress", "--fail-over", "5")
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn("perf counter changes", r.stdout)
        self.assertIn("cycles_per_op[1]: 300 -> 450 (+50.0%)", r.stdout)
        self.assertIn("llc_miss_per_op[1]: 0.2 -> 0.8", r.stdout)
        self.assertIn("ipc[1]: 1.2 -> 0.9 (-0.30)", r.stdout)

    def test_missing_perf_section_is_tolerated(self):
        # v1 baseline (no perf anywhere) against a v2 --perf candidate: the
        # cells just don't join, and the diff stays clean.
        base_doc = make_doc({"s": {"q": [(1.0, 1000.0)]}})
        cand_doc = copy.deepcopy(base_doc)
        self.add_perf(cand_doc, "s", "q",
                      [{"ops": 1000, "cycles_per_op": 450.0}])
        base = self.write("base.json", base_doc)
        cand = self.write("cand.json", cand_doc)
        r = self.run_diff(base, cand, "--fail-on-regress")
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertNotIn("perf counter changes", r.stdout)

    def test_one_sided_perf_event_is_skipped(self):
        # Same metric set except the candidate host lost branch-miss counters:
        # shared metrics diff, the one-sided metric is silently skipped.
        base_doc = make_doc({"s": {"q": [(1.0, 1000.0)]}})
        cand_doc = copy.deepcopy(base_doc)
        self.add_perf(base_doc, "s", "q",
                      [{"ops": 1000, "cycles_per_op": 300.0,
                        "branch_miss_per_op": 1.0}])
        self.add_perf(cand_doc, "s", "q",
                      [{"ops": 1000, "cycles_per_op": 600.0}])
        base = self.write("base.json", base_doc)
        cand = self.write("cand.json", cand_doc)
        r = self.run_diff(base, cand)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn("cycles_per_op[1]: 300 -> 600", r.stdout)
        self.assertNotIn("branch_miss_per_op", r.stdout)

    def test_backend_availability_drift_warns(self):
        base_doc = make_doc({"s": {"q": [(1.0, 1000.0)]}})
        cand_doc = copy.deepcopy(base_doc)
        self.add_perf(base_doc, "s", "q", [{"ops": 1000}],
                      backend=("perf_event", True, ""))
        self.add_perf(cand_doc, "s", "q", [None],
                      backend=("null", False, "perf_event_open denied"))
        base = self.write("base.json", base_doc)
        cand = self.write("cand.json", cand_doc)
        r = self.run_diff(base, cand, "--fail-on-regress")
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn("perf backend availability changed", r.stderr)
        self.assertIn("perf_event_open denied", r.stderr)

    def test_join_is_per_series_and_row(self):
        base = self.write("base.json", make_doc(
            {"s": {"q1": [(1.0, 1000.0), (2.0, 500.0)], "q2": [(1.0, 1000.0)]}}))
        # Only q1 row 2 regresses; q2 improves.
        cand = self.write("cand.json", make_doc(
            {"s": {"q1": [(1.0, 1000.0), (3.0, 333.0)], "q2": [(0.5, 2000.0)]}}))
        r = self.run_diff(base, cand, "--fail-on-regress")
        self.assertEqual(r.returncode, 1)
        self.assertIn("compared 3 cells", r.stdout)
        self.assertIn("q1", r.stdout)
        self.assertIn("[2]", r.stdout)


if __name__ == "__main__":
    unittest.main()
