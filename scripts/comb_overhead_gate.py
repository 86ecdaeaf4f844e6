#!/usr/bin/env python3
"""CI gate for the flat-combining facade's uncontended tax (EXPERIMENTS.md E10).

Reads ONE evq-bench JSON document (schema_version 1 or 2) and compares series
WITHIN its combining-overhead scenario: the comb-cas facade against its bare
inner ring, fifo-simcas, row by row, on mean_seconds. This intra-document comparison is what bench_diff.py cannot
do — it only joins identical series names across two documents — and it is
the right shape for the facade gate: both series come from the same build,
same run, same machine, so the quotient isolates the facade itself.

Usage:
  comb_overhead_gate.py bench.json [--threshold 5]

Exit 1 when any facade row is more than --threshold percent slower than its
bare-ring row. Faster-than-baseline rows always pass.
"""

import argparse
import json
import sys

SCENARIO = "combining-overhead"
FACADE, BASE = "comb-cas", "fifo-simcas"


def load(path):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema_version") not in (1, 2):
        sys.exit(f"{path}: unsupported schema_version {doc.get('schema_version')!r}")
    return doc


def find_scenario(doc, name):
    for scenario in doc.get("scenarios", []):
        if scenario.get("name") == name:
            return scenario
    return None


def series_cells(scenario, name):
    for series in scenario.get("series", []):
        if series.get("name") == name:
            return series.get("cells", [])
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("json", help="evq-bench JSON document (schema 1 or 2)")
    parser.add_argument("--threshold", type=float, default=5.0,
                        help="max tolerated facade overhead, percent (default 5)")
    args = parser.parse_args()

    doc = load(args.json)
    scenario = find_scenario(doc, SCENARIO)
    if scenario is None:
        sys.exit(f"{args.json}: no scenario named {SCENARIO!r}")
    rows = [row.get("label", str(i + 1)) for i, row in enumerate(scenario.get("rows", []))]

    facade = series_cells(scenario, FACADE)
    base = series_cells(scenario, BASE)
    if facade is None or base is None:
        missing = FACADE if facade is None else BASE
        sys.exit(f"{args.json}: scenario {SCENARIO!r} has no series {missing!r}")
    failures = []
    compared = 0
    for i, (f_cell, b_cell) in enumerate(zip(facade, base)):
        f_mean = f_cell.get("mean_seconds", 0.0)
        b_mean = b_cell.get("mean_seconds", 0.0)
        if b_mean <= 0.0:
            continue
        overhead = (f_mean / b_mean - 1.0) * 100.0
        label = rows[i] if i < len(rows) else str(i + 1)
        verdict = "over budget" if overhead > args.threshold else "ok"
        print(f"{FACADE} vs {BASE} [{label}]: {overhead:+.1f}% ({verdict})")
        compared += 1
        if overhead > args.threshold:
            failures.append((label, overhead))

    if compared == 0:
        sys.exit(f"{args.json}: nothing compared — empty series in {SCENARIO!r}")
    print(f"compared {compared} rows, threshold {args.threshold:.1f}%")
    if failures:
        for label, overhead in failures:
            print(f"FAIL: {FACADE} is {overhead:+.1f}% over {BASE} at [{label}] "
                  f"(budget {args.threshold:.1f}%)", file=sys.stderr)
        return 1
    print("combining facade overhead within budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())
