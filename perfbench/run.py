#!/usr/bin/env python3
"""Builds and runs the pipeline benchmark.

    python3 perfbench/run.py --workload enc_serve|plan_churn|plain_rw|all \\
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root. The benchmark (perfbench/src) and the mpq
library it drives are built from source, with CMake, into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench). Build output
goes to standard error, so the last line of standard output is the
benchmark's JSON result: {"correct", "attempted", "failed", "metrics"}, with
the end-to-end metrics, or with --trace 1 the per-layer ones. The line before
it ("report {...}") holds every figure with the run's metadata; diff.py
compares two of them.

--selftest builds and runs the unit checks of the benchmark's own helpers.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build(out):
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "-j", jobs, "--target",
                    "perfbench", "perfbench_selftest"],
                   stdout=sys.stderr, check=True)


def git_sha():
    try:
        return subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                              cwd=ROOT, capture_output=True, text=True,
                              check=True).stdout.strip() or "unknown"
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    out = build_dir()
    try:
        build(out)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"build failed: {e}", file=sys.stderr)
        return 1
    if args.selftest:
        return subprocess.run([os.path.join(out, "perfbench_selftest")]).returncode
    cmd = [os.path.join(out, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", args.trace, "--git-sha", git_sha()]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
