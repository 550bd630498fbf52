#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <sim-cnn|sim-seq|train-cnn-hqt|all> \
        --seed <n> --seconds <s> --trace <0|1>

The first call configures and builds perfbench/ (which compiles the
repository's libraries from src/) into .bench_build/ in the current
directory; later calls only re-check that build. Build output goes to
standard error, so the last line of standard output is the result
object printed by cq_perfbench, which replaces this process. With
--workload all the three workloads run one after another, and the exit
code is 0 only when all three succeed.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.abspath(".bench_build")
WORKLOADS = ["sim-cnn", "sim-seq", "train-cnn-hqt"]


def build():
    """Configure (first call only) and build; False on failure."""
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          check=False).returncode != 0:
            return False
    return True


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(BUILD_DIR, "cq_perfbench")
    args = sys.argv[1:] + [
        "--reference", os.path.join(HERE, "reference.json")]
    if "--workload" in args[:-1]:
        at = args.index("--workload") + 1
        if args[at] == "all":
            failed = False
            for workload in WORKLOADS:
                args[at] = workload
                failed |= subprocess.run([binary] + args,
                                         check=False).returncode != 0
            return 1 if failed else 0
    sys.stdout.flush()
    sys.stderr.flush()
    os.execv(binary, [binary] + args)
    return 1  # not reached


if __name__ == "__main__":
    sys.exit(main())
