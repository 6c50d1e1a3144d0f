#!/usr/bin/env python3
"""Builds and runs the mapping-service benchmark.

Run from the repository root:

    python3 mapbench/run.py --workload cold_search --seed 1 --seconds 10 --trace 0
    python3 mapbench/run.py --selftest

The first call configures and builds mapbench/ (and the mapcq library it
links) in Release mode under .bench_build/mapbench; later calls only
rebuild what changed. Build output goes to stderr, so the benchmark's last
stdout line stays its JSON result. Exits non-zero, without a result, when
the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(os.getcwd(), ".bench_build", "mapbench")


def build() -> str:
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", "mapbench", "-j", jobs],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"mapbench: build step failed: {' '.join(cmd)}")
    return os.path.join(BUILD, "mapbench")


def main() -> int:
    binary = build()
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
