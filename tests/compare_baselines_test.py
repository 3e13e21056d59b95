#!/usr/bin/env python3
"""Tests for bench/compare_baselines.py, the CI bench gate script.

Runs the script on small fixture directories written to a temporary
directory and checks its exit status: 0 when every gate holds, 1 when a
ratio falls past the tolerance or a results file is missing. Then checks
that every gate in the committed bench/baselines/gates.json names a metric
its committed baseline file holds, so a gate edit without a matching
baseline fails here rather than after the bench loop.

Usage (from the repository root):
    python3 tests/compare_baselines_test.py
"""

import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "bench", "compare_baselines.py")
BASELINES = os.path.join(ROOT, "bench", "baselines")

GATES = {
    "tolerance": 0.30,
    "gates": [
        {"file": "BENCH_a.json", "metric": "speedup"},
        {"file": "BENCH_a.json", "metric": "mismatches", "exact_max": 0},
        {"file": "BENCH_b.json", "metric": "ratio"},
    ],
}
BASELINE = {
    "BENCH_a.json": {"speedup": 2.0, "mismatches": 0},
    "BENCH_b.json": {"ratio": 1.0},
}


def write_json(path, doc):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f)


def run_gates(results):
    """Exit status of the script over `results` ({file: doc}) against the
    fixture baselines."""
    with tempfile.TemporaryDirectory() as tmp:
        baselines = os.path.join(tmp, "baselines")
        current = os.path.join(tmp, "results")
        os.mkdir(baselines)
        os.mkdir(current)
        write_json(os.path.join(baselines, "gates.json"), GATES)
        for name, doc in BASELINE.items():
            write_json(os.path.join(baselines, name), doc)
        for name, doc in results.items():
            write_json(os.path.join(current, name), doc)
        proc = subprocess.run(
            [sys.executable, SCRIPT, "--results-dir", current,
             "--baselines-dir", baselines],
            capture_output=True, text=True, check=False)
        return proc.returncode, proc.stdout


def expect(name, ok, detail=""):
    print(f"{'ok  ' if ok else 'FAIL'} {name}")
    if not ok and detail:
        print(detail)
    return 0 if ok else 1


def main():
    failures = 0

    # Every gate holds: a ratio 25% under its baseline is within 30%.
    code, out = run_gates({"BENCH_a.json": {"speedup": 1.5, "mismatches": 0},
                           "BENCH_b.json": {"ratio": 1.2}})
    failures += expect("every gate holds: exit 0", code == 0, out)

    # One ratio falls past the tolerance (floor 2.0 * 0.7).
    code, out = run_gates({"BENCH_a.json": {"speedup": 1.3, "mismatches": 0},
                           "BENCH_b.json": {"ratio": 1.0}})
    failures += expect("ratio past the tolerance: exit 1", code == 1, out)
    failures += expect("the failing gate is named",
                       "FAIL  BENCH_a.json:speedup" in out, out)

    # An exact_max gate above its bound.
    code, out = run_gates({"BENCH_a.json": {"speedup": 2.0, "mismatches": 1},
                           "BENCH_b.json": {"ratio": 1.0}})
    failures += expect("exact_max exceeded: exit 1", code == 1, out)

    # A results file is missing (its bench crashed before writing JSON).
    code, out = run_gates({"BENCH_a.json": {"speedup": 2.0, "mismatches": 0}})
    failures += expect("results file missing: exit 1", code == 1, out)
    failures += expect("the missing file is named",
                       "BENCH_b.json:ratio: no results file" in out, out)

    # The committed manifest: every gate's metric is in its baseline.
    with open(os.path.join(BASELINES, "gates.json"), encoding="utf-8") as f:
        manifest = json.load(f)
    for gate in manifest["gates"]:
        path = os.path.join(BASELINES, gate["file"])
        try:
            with open(path, encoding="utf-8") as f:
                baseline = json.load(f)
        except (OSError, ValueError) as exc:
            failures += expect(f"baseline {gate['file']} readable", False,
                               str(exc))
            continue
        failures += expect(
            f"committed baseline {gate['file']} has {gate['metric']}",
            gate["metric"] in baseline)

    print(f"\n{failures} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
