#!/usr/bin/env python3
"""Builds and runs the end-to-end DBDC benchmark.

    python3 e2ebench/run.py --workload jobs|wide|stream --seed N \
        --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
program and the harness (CMake, Release) into .bench_build/e2ebench; later
runs only rebuild what changed. The harness prints the run's provenance
and, as the last line of standard output, one JSON object with the keys
correct, attempted, failed and metrics. This script checks that line
against BENCHMARK.json (every metric named there, with its unit, and no
other) before passing it on; a build failure, a crash or a mismatch exits
non-zero without printing a result. --trace 1 also writes a Chrome trace
to .bench_out/. See e2ebench/NOTES.md for the workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2ebench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# One run measures for --seconds plus its preparation; a hung program is
# stopped well inside the three minutes a run may take.
RUN_TIMEOUT_S = 170


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build(targets=("e2ebench",)):
    """Configures (once) and builds `targets`; True on success."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    generated = ("Makefile", "build.ninja")
    if not any(os.path.exists(os.path.join(BUILD_DIR, f)) for f in generated):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", *targets,
                  "-j", jobs])
    for step in steps:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          check=False).returncode != 0:
            log("build failed: " + " ".join(step))
            return False
    return True


def load_spec():
    """{"end_to_end": {name: unit}, "per_layer": {name: unit}}."""
    with open(SPEC_PATH, encoding="utf-8") as f:
        spec = json.load(f)
    return {table: {m["name"]: m["unit"] for m in spec[table]}
            for table in ("end_to_end", "per_layer")}


def check_result(line, spec, trace):
    """Problems with a result line, [] when it matches the spec."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError as e:
        return [f"result line is not JSON: {e}"]
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return [f"result keys must be exactly {sorted(RESULT_KEYS)}"]
    problems = []
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            problems.append(f"{key} must be a whole number")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("attempted must be at least 1")
    if not isinstance(result["correct"], bool):
        problems.append("correct must be true or false")
    expected = spec["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    if not isinstance(metrics, dict):
        return problems + ["metrics must be an object"]
    for name in sorted(set(metrics) - set(expected)):
        problems.append(f"metric {name} is not named in BENCHMARK.json")
    for name in sorted(set(expected) - set(metrics)):
        problems.append(f"metric {name} was not printed")
    for name in sorted(set(expected) & set(metrics)):
        entry = metrics[name]
        if (not isinstance(entry, dict) or set(entry) != {"value", "unit"}
                or isinstance(entry["value"], bool)
                or not isinstance(entry["value"], (int, float))):
            problems.append(f"metric {name} must be {{value, unit}}")
        elif entry["unit"] != expected[name]:
            problems.append(f"metric {name} has unit {entry['unit']}, "
                            f"BENCHMARK.json says {expected[name]}")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["jobs", "wide", "stream"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        spec = load_spec()
    except (OSError, ValueError, KeyError) as e:
        log(f"cannot read {SPEC_PATH}: {e}")
        return 2
    if not build():
        return 2

    os.makedirs(OUT_DIR, exist_ok=True)
    trace_path = os.path.join(
        OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
    command = [os.path.join(BUILD_DIR, "e2ebench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--trace-path", trace_path]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
        return 1
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        log(f"benchmark exited with code {run.returncode}")
        return 1
    problems = check_result(lines[-1], spec, args.trace == 1)
    if problems:
        for problem in problems:
            log(problem)
        return 1
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
