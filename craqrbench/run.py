#!/usr/bin/env python3
"""Builds and runs the CrAQR benchmark.

Usage (from the root of a checkout):

    python3 craqrbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Builds the library from the checkout's sources together with the
craqrbench binary (CMake, Release, into $CARGO_TARGET_DIR or .bench_build),
runs the helper tests, then runs one workload. The binary's table goes to
standard output; its last line is one JSON object with the keys correct,
attempted, failed and metrics. This script checks that line against
BENCHMARK.json (every end-to-end metric with --trace 0, every per-layer
metric with --trace 1, each with its unit) and exits non-zero, without
printing a result, when the build, the helper tests or the check fail. A
traced run also writes a Chrome trace under <build dir>/traces/.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def fail(message):
    print("craqrbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configures once, then builds incrementally; output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(cmd))


def expected_metrics(trace):
    path = os.path.join(os.getcwd(), "BENCHMARK.json")
    try:
        with open(path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, expected):
    try:
        result = json.loads(line)
    except ValueError:
        fail("the last line of the output is not JSON")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("unexpected result keys %s" % sorted(result))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("attempted must be a whole number >= 1")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        fail("metrics differ from BENCHMARK.json: %s" %
             sorted(set(metrics) ^ set(expected)))
    for name, unit in expected.items():
        if metrics[name].get("unit") != unit:
            fail("%s has unit %r, BENCHMARK.json says %r" %
                 (name, metrics[name].get("unit"), unit))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    expected = expected_metrics(args.trace)
    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build(build_dir)
    helpers = subprocess.run(
        [os.path.join(build_dir, "craqrbench_harness_test")],
        stdout=sys.stderr, stderr=sys.stderr, timeout=60)
    if helpers.returncode:
        fail("helper tests failed")

    cmd = [os.path.join(build_dir, "craqrbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("the run exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stdout)
        fail("the run failed (exit code %d)" % proc.returncode)
    check_result(lines[-1], expected)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
