#!/usr/bin/env python3
"""Builds the serving benchmark driver from this checkout and runs one workload.

Run from the root of an aigs checkout:

    python3 servebench/run.py --workload tree_hot --seed 1 --seconds 8 --trace 0

The build (Release, library + driver only) goes to $CARGO_TARGET_DIR when it
is set, else to .bench_build; later runs reuse it. The driver's last stdout
line is the result JSON; build output goes to stderr. Exits non-zero without
a result when the checkout has no sources to build.
"""
import argparse
import os
import shutil
import subprocess
import sys

RUN_TIMEOUT_S = 170


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src"))):
        print("servebench: no aigs sources (CMakeLists.txt, src/) in " + root,
              file=sys.stderr)
        return 2

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_root):
        build_root = os.path.join(root, build_root)
    build_dir = os.path.join(build_root, "servebench")
    work_dir = os.path.join(build_root, "run")

    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", bench_dir, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "servebench",
                  "-j", "4"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("servebench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return 2

    # WAL directories of an earlier run that was killed are stale; traces of
    # earlier runs stay.
    shutil.rmtree(os.path.join(work_dir, "wal"), ignore_errors=True)
    os.makedirs(work_dir, exist_ok=True)
    command = [os.path.join(build_dir, "servebench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir]
    sys.stdout.flush()
    try:
        result = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("servebench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
