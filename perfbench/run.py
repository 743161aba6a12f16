#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds the
perfbench package (which compiles the library from src/) into
.bench_build/perfbench; later calls only rebuild what changed. Build output
goes to stderr, so the benchmark's last stdout line stays its JSON result.
Every argument is passed through to the perfbench binary (see
perfbench/README.md). Exits non-zero without a result if the sources are
missing or the build fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "work")


def run_step(cmd):
    """Runs a build step with its output on stderr; exits on failure."""
    result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(cmd))
        sys.exit(result.returncode or 1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("perfbench: library sources (src/) not found under %s\n" % ROOT)
        sys.exit(2)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_step(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
                  "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    run_step(["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs])
    return os.path.join(BUILD_DIR, "perfbench")


def main():
    binary = build()
    os.makedirs(WORK_DIR, exist_ok=True)
    proc = subprocess.Popen([binary, "--work-dir", WORK_DIR] + sys.argv[1:])
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
