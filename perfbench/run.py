#!/usr/bin/env python3
"""Builds the perfbench harness against the rdbt library and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload cold-code --seed 1 --seconds 45 --trace 0

The harness is configured and built (incrementally) under
.bench_build/perfbench; build output goes to standard error, so the last
line of standard output is the harness's JSON result. Every argument is
passed to the harness unchanged (see perfbench/README.md).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build():
    """Configures and builds the harness; returns its path or None."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        print("perfbench: the rdbt sources (CMakeLists.txt, src/) are not "
              "next to perfbench/", file=sys.stderr)
        return None
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return None
    return os.path.join(BUILD, "perfbench")


def main():
    exe = build()
    if exe is None:
        return 2
    sys.stdout.flush()
    return subprocess.run([exe] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
