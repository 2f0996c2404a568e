#!/usr/bin/env python3
"""Builds webre and the end-to-end benchmark from source, then runs it.

Run from the repository root:

    python3 e2ebench/run.py --workload ingest --seed 1 --seconds 10 --trace 0

The build goes to .bench_build/ at the root (configured once, then
brought up to date on every run; build output goes to stderr). All
arguments are passed to the e2ebench binary, whose last line of standard
output is the JSON result. See e2ebench/README.md for the workloads and
metrics.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
# A run ends well within three minutes; the watchdog stops a hung one
# (the server child dies with the benchmark process).
RUN_TIMEOUT_S = 170


def build():
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("e2ebench: webre sources not found under %s\n" % ROOT)
        return False
    configure = ["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            return False
    jobs = str(os.cpu_count() or 1)
    return subprocess.call(["cmake", "--build", BUILD, "-j", jobs],
                           stdout=sys.stderr) == 0


def main():
    if not build():
        sys.stderr.write("e2ebench: build failed\n")
        return 1
    binary = os.path.join(BUILD, "e2ebench")
    command = [binary, "--bin-dir", BUILD] + sys.argv[1:]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("e2ebench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1


if __name__ == "__main__":
    sys.exit(main())
