#!/usr/bin/env python3
"""Compare freshly produced BENCH_*.json files against committed baselines.

The serving benches emit flat {"metric": value} JSON files. CI runs them
with continue-on-error (absolute throughput is noisy on shared runners),
then runs this script as a HARD step: it checks only the ratio metrics
listed in bench/baselines/gates.json, which divide out machine speed, and
fails on a >tolerance regression vs the committed baseline.

Usage:
    python3 bench/compare_baselines.py --results-dir build \
        [--baselines-dir bench/baselines] [--append bench/trajectory.jsonl]

--append FILE adds one JSON line to FILE recording this comparison: the
commit (`git describe --always --dirty`), the host's fingerprint (nproc and
its AVX2/FMA/AVX-512 flags) and every gate's value and verdict, so the
performance trajectory can be read across commits without comparing
numbers from different machines by accident.

Exit status: 0 when every gate holds, 1 otherwise. A bench that produced no
results file fails its gates (the bench crashed before writing JSON).
"""

import argparse
import json
import os
import subprocess
import sys


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as exc:
        print(f"  cannot read {path}: {exc}")
        return None


def commit_id():
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def host_fingerprint():
    flags = set()
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name") and cpu == "unknown":
                    cpu = line.split(":", 1)[1].strip()
                if line.startswith("flags") and not flags:
                    flags = set(line.split(":", 1)[1].split())
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "avx2": "avx2" in flags, "fma": "fma" in flags,
            "avx512f": "avx512f" in flags}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--results-dir", required=True,
                        help="directory holding the BENCH_*.json files the "
                             "benches just wrote")
    parser.add_argument("--baselines-dir", default="bench/baselines",
                        help="directory with committed baselines + gates.json")
    parser.add_argument("--append", metavar="FILE",
                        help="append one JSON line with the commit, host and "
                             "every gate's value and verdict to FILE")
    args = parser.parse_args()

    manifest = load_json(os.path.join(args.baselines_dir, "gates.json"))
    if manifest is None:
        print("FAIL: gates manifest missing or unreadable")
        return 1
    tolerance = float(manifest.get("tolerance", 0.30))

    failures = 0
    checked = 0
    records = []
    results_cache = {}
    baselines_cache = {}
    for gate in manifest["gates"]:
        fname, metric = gate["file"], gate["metric"]
        if fname not in results_cache:
            results_cache[fname] = load_json(
                os.path.join(args.results_dir, fname))
        if fname not in baselines_cache:
            baselines_cache[fname] = load_json(
                os.path.join(args.baselines_dir, fname))
        current_doc, baseline_doc = results_cache[fname], baselines_cache[fname]
        label = f"{fname}:{metric}"
        checked += 1
        record = {"file": fname, "metric": metric, "value": None,
                  "verdict": "FAIL"}
        records.append(record)
        if current_doc is None:
            print(f"FAIL  {label}: no results file (bench crashed?)")
            failures += 1
            continue
        if baseline_doc is None or metric not in baseline_doc:
            print(f"FAIL  {label}: no committed baseline")
            failures += 1
            continue
        if metric not in current_doc:
            print(f"FAIL  {label}: metric missing from results")
            failures += 1
            continue
        current = float(current_doc[metric])
        baseline = float(baseline_doc[metric])
        if "exact_max" in gate:
            bound = float(gate["exact_max"])
            ok = current <= bound
            detail = f"current {current:g} (must be <= {bound:g})"
        else:
            floor = baseline * (1.0 - tolerance)
            ok = current >= floor
            detail = (f"current {current:.4g} vs baseline {baseline:.4g} "
                      f"(floor {floor:.4g})")
        print(f"{'ok   ' if ok else 'FAIL '} {label}: {detail}")
        failures += 0 if ok else 1
        record["value"] = current
        record["verdict"] = "ok" if ok else "FAIL"

    if args.append:
        row = {"commit": commit_id(), "host": host_fingerprint(),
               "gates_held": checked - failures, "gates": records}
        with open(args.append, "a", encoding="utf-8") as f:
            f.write(json.dumps(row, sort_keys=True) + "\n")

    print(f"\n{checked - failures}/{checked} bench gates hold "
          f"(tolerance {tolerance:.0%})")
    if failures:
        print("FAIL: bench regression vs committed baselines — if the change "
              "is intentional, refresh bench/baselines/*.json")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
