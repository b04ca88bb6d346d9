#!/usr/bin/env python3
"""Builds the wall-clock PDM action benchmark from source and runs it.

Usage (from the repository root):

    python3 wallbench/run.py --workload navigate --seed 1 --seconds 10 --trace 0

The harness and the library sources under src/ are compiled with CMake
into .bench_build/wallbench (the first run builds, later runs reuse the
build). Build output goes to stderr, so the last line of stdout is the
harness's JSON result. Chrome traces of --trace 1 runs are written to
.bench_build/traces/<workload>.trace.json. The exit code is the
harness's: non-zero on a wrong output, a failed invariant or a build
failure.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "wallbench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "traces")
WORKLOADS = ("navigate", "engine-scan", "contended")
# A run must end within 180 s; the harness itself stops after --seconds
# plus set-up and replay, so this only guards against a hang.
RUN_TIMEOUT_S = 170


def build():
    configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"]
    # The generator is fixed by the first configure of the build tree.
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(BUILD_DIR, "Makefile")):
        configure += ["-G", "Ninja"]
    subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(BUILD_DIR, "wallbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if not 1 <= args.seconds <= 60:
        parser.error("--seconds must be between 1 and 60")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"wallbench: build failed: {err}", file=sys.stderr)
        return 1
    os.makedirs(TRACE_DIR, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", TRACE_DIR]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("wallbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
