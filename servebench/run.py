#!/usr/bin/env python3
"""Serving benchmark for the inference engine.

Run from the repository root:

    python3 servebench/run.py --workload chat|batch --seed N \
        --seconds S --trace 0|1
    python3 servebench/run.py --selftest

Builds servebench/ (a CMake project that compiles the repository's src/)
into $CARGO_TARGET_DIR/servebench, default .bench_build/servebench, then
runs the workload in a fresh process. Every line the benchmark prints
starts with '#' except the last, which is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports BENCHMARK.json's end_to_end metrics, --trace 1 its
per_layer metrics plus a Chrome-trace file trace-<workload>.json in the
build directory. See servebench/src/main.cpp for what each pass does.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 170


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = REPO_ROOT / base
    return base / "servebench"


def build(target):
    """Configures once, then builds `target`; build output goes to stderr."""
    out = build_dir()
    if not (out / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", str(out), "--target", target,
                    "-j", jobs], check=True, stdout=sys.stderr)
    return out / target


def expected_metrics(trace):
    """(name, unit) pairs BENCHMARK.json promises, or None without it."""
    spec_path = REPO_ROOT / "BENCHMARK.json"
    if not spec_path.exists():
        return None
    spec = json.loads(spec_path.read_text())
    return [(m["name"], m["unit"])
            for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=["chat", "batch"])
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if not args.selftest and None in (args.workload, args.seed, args.seconds):
        parser.error("--workload, --seed and --seconds are required")
    try:
        binary = build("servebench_selftest" if args.selftest else "servebench")
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"servebench build failed: {e}", file=sys.stderr)
        return 1
    if args.selftest:
        return subprocess.run([str(binary)]).returncode

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out",
                str(build_dir() / f"trace-{args.workload}.json")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        print(f"servebench exited with {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    expected = expected_metrics(args.trace)
    got = [(name, m["unit"]) for name, m in result["metrics"].items()]
    if expected is not None and sorted(got) != sorted(expected):
        print("metrics differ from BENCHMARK.json:\n"
              f"  missing {sorted(set(expected) - set(got))}\n"
              f"  extra   {sorted(set(got) - set(expected))}", file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
