#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds the
topkmon library and the perfbench executable (Release) into .bench_build/;
later calls only rebuild what changed. Build output goes to standard error, so
the last line of standard output is the executable's JSON result. The exit
code is the executable's: 0 when every answer was correct, 1 when a check
failed, 2 on bad arguments or missing sources.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"


def build() -> Path:
    jobs = str(min(4, os.cpu_count() or 1))
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return BUILD / "perfbench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    missing = [p for p in ("CMakeLists.txt", "src") if not (ROOT / p).exists()]
    if missing:
        print(f"perfbench: repository sources missing next to perfbench/: {missing}",
              file=sys.stderr)
        return 2
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    sys.stdout.flush()
    done = subprocess.run([str(binary), "--workload", args.workload, "--seed", str(args.seed),
                           "--seconds", str(args.seconds), "--trace", str(args.trace)])
    return done.returncode if done.returncode >= 0 else 1


if __name__ == "__main__":
    sys.exit(main())
