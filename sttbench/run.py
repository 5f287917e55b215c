#!/usr/bin/env python3
"""Build and run the sttlock end-to-end benchmark.

    python3 sttbench/run.py --workload campaign_sat --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The benchmark package (sttbench/) is
configured and built into .bench_build/sttbench (an up-to-date build is a
no-op), generated inputs go to .bench_build/work, and the benchmark binary's
report is passed through: its last stdout line is the JSON result. Build
output goes to stderr. Exits non-zero, without a result, when the library
sources are missing or the build fails.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "sttbench")
BUILD_JOBS = "3"


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("sttbench: library sources (src/) not found next to sttbench/")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            sys.exit("sttbench: cmake configure failed")
    make = ["cmake", "--build", BUILD_DIR, "-j", BUILD_JOBS]
    if subprocess.run(make, stdout=sys.stderr).returncode != 0:
        sys.exit("sttbench: build failed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["campaign_sat", "lint_locked", "attack_oracle"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    build()
    command = [os.path.join(BUILD_DIR, "sttbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--work-dir", os.path.join(BUILD_ROOT, "work"),
               "--expected", os.path.join(HERE, "expected.txt")]
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
