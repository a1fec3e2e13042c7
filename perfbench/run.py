#!/usr/bin/env python3
"""Repository benchmark entry point: builds the harness from source, then runs it.

Run from the repository root:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --self-test [--seed N]

The build (CMake, Release) goes to $CARGO_TARGET_DIR/perfbench, by default
.bench_build/perfbench; the first run compiles libssresf and the harness,
later runs only check that the build is current. Build output goes to
standard error, so the harness's last standard-output line stays the result
object. Temporary files, per-run reports and traces go to
.bench_build/perfbench-out.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
OUT_DIR = os.path.join(BUILD_ROOT, "perfbench-out")
RUN_TIMEOUT_S = 175


def build() -> str:
    """Configures (once) and builds the harness; returns the binary path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr, cwd=ROOT)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr, cwd=ROOT)
    return os.path.join(BUILD_DIR, "perfbench")


def main() -> int:
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as exc:
        print(f"perfbench: build failed: {exc}", file=sys.stderr)
        return 1
    os.makedirs(OUT_DIR, exist_ok=True)
    sys.stdout.flush()
    try:
        done = subprocess.run([binary, *sys.argv[1:], "--out", OUT_DIR],
                              cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
