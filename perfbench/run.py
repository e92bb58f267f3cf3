#!/usr/bin/env python3
"""Build and run the ofmtl end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The driver (perfbench/driver.cpp) and the
library it links are built from source with CMake into $CARGO_TARGET_DIR
(default .bench_build) under the checkout; when the build is up to date this
costs a cached configure and a no-op `cmake --build`. Build output goes to
stderr, so the last line of stdout is the driver's JSON result. The exit
code is the driver's, or nonzero when the build fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_JOBS = max(1, min(4, os.cpu_count() or 1))


def build():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    build_dir = os.path.join(target, "perfbench")
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", str(BUILD_JOBS)],
    ]
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            print("perfbench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return None
    return os.path.join(build_dir, "ofmtl_perfbench")


def main():
    binary = build()
    if binary is None:
        return 1
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
