#!/usr/bin/env python3
"""Smoke tests for scripts/comb_overhead_gate.py (CTest: `comb_overhead_gate_py`).

The gate is the CI step that keeps the flat-combining facade honest about its
uncontended tax (EXPERIMENTS.md E10): it compares facade vs bare-ring series
WITHIN one bench document, row by row, and exits 1 past --threshold. These
tests pin the pairing logic, the exit-code contract, the schema acceptance
(v1 and v2), and the missing-series error path.

Stdlib only (unittest + subprocess): the test must run on a bare python3 with
no pip installs.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "comb_overhead_gate.py")


def make_doc(series_means, scenario="combining-overhead", schema=1):
    """Builds a bench document with one scenario. `series_means` maps series
    name -> list of mean_seconds (one per row)."""
    n_rows = max(len(m) for m in series_means.values())
    return {"schema_version": schema, "scenarios": [{
        "name": scenario,
        "rows": [{"label": f"{2 ** i}t"} for i in range(n_rows)],
        "series": [{"name": name,
                    "cells": [{"mean_seconds": mean} for mean in means]}
                   for name, means in series_means.items()],
    }]}


class CombOverheadGateTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def write(self, doc):
        path = os.path.join(self.tmp.name, "bench.json")
        with open(path, "w") as f:
            json.dump(doc, f)
        return path

    def run_gate(self, path, *flags):
        return subprocess.run([sys.executable, SCRIPT, path, *flags],
                              capture_output=True, text=True)

    def test_within_budget_passes(self):
        # Facades 2% over their rings: inside the default 5% budget.
        path = self.write(make_doc({
            "comb-cas": [1.02, 2.04], "fifo-simcas": [1.0, 2.0],
            "comb-scq": [0.51, 1.02], "scq": [0.5, 1.0],
        }))
        r = self.run_gate(path)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn("compared 4 rows", r.stdout)
        self.assertIn("within budget", r.stdout)

    def test_over_budget_row_fails_and_names_the_pair(self):
        path = self.write(make_doc({
            "comb-cas": [1.0, 2.4], "fifo-simcas": [1.0, 2.0],  # row 2: +20%
            "comb-scq": [0.5, 1.0], "scq": [0.5, 1.0],
        }))
        r = self.run_gate(path)
        self.assertEqual(r.returncode, 1)
        self.assertIn("FAIL", r.stderr)
        self.assertIn("comb-cas", r.stderr)
        self.assertIn("[2t]", r.stderr)

    def test_threshold_flag_loosens_the_budget(self):
        path = self.write(make_doc({
            "comb-cas": [1.0, 2.4], "fifo-simcas": [1.0, 2.0],
            "comb-scq": [0.5, 1.0], "scq": [0.5, 1.0],
        }))
        r = self.run_gate(path, "--threshold", "25")
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)

    def test_faster_than_baseline_always_passes(self):
        path = self.write(make_doc({
            "comb-cas": [0.5], "fifo-simcas": [1.0],
            "comb-scq": [0.4], "scq": [1.0],
        }))
        r = self.run_gate(path, "--threshold", "0")
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)

    def test_explicit_pair_overrides_defaults(self):
        path = self.write(make_doc({"my-facade": [1.2], "my-ring": [1.0]}))
        r = self.run_gate(path, "--pair", "my-facade:my-ring")
        self.assertEqual(r.returncode, 1)
        self.assertIn("my-facade", r.stderr)

    def test_accepts_schema_v2(self):
        path = self.write(make_doc({
            "comb-cas": [1.0], "fifo-simcas": [1.0],
            "comb-scq": [0.5], "scq": [0.5],
        }, schema=2))
        r = self.run_gate(path)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)

    def test_rejects_unknown_schema(self):
        path = self.write(make_doc({"comb-cas": [1.0]}, schema=3))
        r = self.run_gate(path)
        self.assertNotEqual(r.returncode, 0)
        self.assertIn("unsupported schema_version", r.stderr + r.stdout)

    def test_missing_series_is_an_error(self):
        path = self.write(make_doc({"comb-cas": [1.0]}))  # no fifo-simcas
        r = self.run_gate(path)
        self.assertNotEqual(r.returncode, 0)
        self.assertIn("fifo-simcas", r.stderr + r.stdout)

    def test_missing_scenario_is_an_error(self):
        path = self.write(make_doc({"comb-cas": [1.0], "fifo-simcas": [1.0]},
                                   scenario="something-else"))
        r = self.run_gate(path)
        self.assertNotEqual(r.returncode, 0)
        self.assertIn("combining-overhead", r.stderr + r.stdout)


if __name__ == "__main__":
    unittest.main()
