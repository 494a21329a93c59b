#!/usr/bin/env python3
"""Builds and runs pdtstore's benchmark (see README.md).

    python3 perfbench/run.py --workload htap_refresh --seed 1 --seconds 60 --trace 0

Run from the root of a source tree. The benchmark is compiled from that
tree with CMake into $CARGO_TARGET_DIR (default .bench_build). The last
line of stdout is the result object; the exit code is non-zero when the
build fails, a check fails or no result is printed.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 175
# BENCHMARK.json lists the workloads the benchmark's verdict rests on;
# olap_hot runs on demand (see README.md).
WORKLOADS = ["olap_hot", "olap_cold_serial", "htap_refresh"]


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


def build(targets=("perfbench",)):
    """Configures and builds the benchmark; returns the build directory."""
    out = build_dir()
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "-j4", "--target", *targets],
    ]
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    # A fresh build leaves dirty pages behind; their writeback would
    # stretch the first run's WAL fsyncs.
    os.sync()
    return out


def git_sha():
    if not os.path.isdir(".git"):
        return "unknown"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], check=True,
                              capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", choices=["0", "1"], default="0")
    # A smaller SF for the smoke test; by default each workload uses its
    # own (see README.md).
    p.add_argument("--sf", type=float)
    a = p.parse_args()

    out = build()
    cmd = [os.path.join(out, "perfbench"), "--workload", a.workload,
           "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", a.trace,
           "--out-dir", os.path.join(out, "out"), "--git-sha", git_sha()]
    if a.sf is not None:
        cmd += ["--sf", str(a.sf)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, AssertionError):
        sys.stderr.write(proc.stdout)
        sys.exit("perfbench: no result line (exit code %d)" % proc.returncode)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return 0 if proc.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
