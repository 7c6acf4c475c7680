#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload steady_long --seed 1 --seconds 10 --trace 0

Configures and builds perfbench/ (which compiles ../src) as a Release
CMake package under .bench_build/perfbench, then runs the benchmark binary
with the same arguments. Span logs of traced runs go to .bench_out/. The
binary's last stdout line is the JSON result; build output goes to stderr.
Exits nonzero, printing no result, when the build or the run fails.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "perfbench"
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".bench_out"


def build() -> Path:
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", str(SOURCE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD), "--target", "perfbench", "-j", jobs],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"perfbench: {' '.join(cmd[:2])} failed with exit code {done.returncode}")
    return BUILD / "perfbench"


def main() -> int:
    binary = build()
    OUT.mkdir(exist_ok=True)
    cmd = [str(binary), *sys.argv[1:], "--out-dir", str(OUT)]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
