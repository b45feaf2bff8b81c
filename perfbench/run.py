#!/usr/bin/env python3
"""Builds and runs the MSD-Mixer benchmark described by BENCHMARK.json.

Usage, from the repository root:

    python3 perfbench/run.py --workload train --seed 1 --seconds 30 --trace 0

Configures and builds perfbench/ (which compiles ../src) into .bench_build,
runs the perfbench binary, and re-emits its final JSON line checked against
BENCHMARK.json: with --trace 0 every end_to_end metric must be present with
its declared unit; with --trace 1 the per_layer metrics are listed in
BENCHMARK.json order, and a layer the workload does not run reads 0.
Build output goes to stderr, so the JSON object stays the last stdout line.
Exits nonzero on a build failure, an incorrect run, or a metric mismatch.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 170


def build():
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "-j", "4", "--target", "perfbench"],
        check=True, stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        sys.exit("unknown workload %s" % args.workload)
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        sys.exit("perfbench build failed: %s" % e)

    cmd = [os.path.join(BUILD_DIR, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out-dir", os.path.join(".bench_build", "out")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench timed out after %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(proc.stdout)
        sys.exit("perfbench printed no result (exit %d)" % proc.returncode)
    for line in lines[:-1]:
        print(line)

    declared = spec["per_layer"] if args.trace == "1" else spec["end_to_end"]
    measured = result["metrics"]
    metrics = {}
    errors = []
    for m in declared:
        got = measured.get(m["name"])
        if got is None:
            if args.trace == "0":
                errors.append("end-to-end metric %s missing" % m["name"])
                continue
            got = {"value": 0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            errors.append("%s: unit %s, BENCHMARK.json says %s" %
                          (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = got
    undeclared = sorted(set(measured) - set(metrics))
    if undeclared:
        errors.append("metrics not in BENCHMARK.json: %s" % ", ".join(undeclared))
    for e in errors:
        print("  ERROR " + e)
    result["metrics"] = metrics
    result["correct"] = bool(result["correct"]) and not errors
    print(json.dumps(result))
    sys.exit(proc.returncode if proc.returncode != 0 else (1 if errors else 0))


if __name__ == "__main__":
    main()
