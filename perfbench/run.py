#!/usr/bin/env python3
"""Builds and runs the libfreshen end-to-end benchmark.

Usage (from the repository root):

  python3 perfbench/run.py --workload zipf_keys --seed 1 --seconds 35 --trace 0

The first run configures and builds libfreshen plus the benchmark program
(Release) into .bench_build/ at the repository root; later runs only
rebuild what changed. Build output goes to stderr, so the last line of
stdout is the program's JSON result. The exit code is the program's: 0 when
every correctness check passed.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "cmake")
WORK_DIR = os.path.join(".bench_build", "run")
BINARY = os.path.join(BUILD_DIR, "freshen_perfbench")


def build():
    """Configures (once) and builds the program; returns True on success."""
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    command = ["cmake", "--build", BUILD_DIR, "--target", "freshen_perfbench",
               "-j", jobs]
    return subprocess.run(command, stdout=sys.stderr).returncode == 0


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: libfreshen sources not found next to perfbench/",
              file=sys.stderr)
        return 2
    if shutil.which("cmake") is None:
        print("perfbench: cmake not found", file=sys.stderr)
        return 2
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    sys.stdout.flush()
    command = [BINARY] + sys.argv[1:] + ["--work-dir", WORK_DIR]
    return subprocess.run(command, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
