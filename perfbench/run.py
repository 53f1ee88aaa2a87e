#!/usr/bin/env python3
"""Builds and runs one workload of the standing Figure 1 benchmark.

Run from the root of the repository:

    python3 perfbench/run.py --workload fig1_hybrid_16k --seed 1 \
        --seconds 20 --trace 0

The first call configures and builds the library and the driver from
source into .bench_build/ (Release); later calls only rebuild what changed.
Build output goes to stderr, so the last line of stdout is the driver's
result object. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "fig1_bench")


def build():
    """Configures (once) and builds the driver; exits non-zero on failure."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_quietly(cmd, "configure")
    run_quietly(["cmake", "--build", BUILD, "--target", "fig1_bench",
                 "-j", "2"], "build")


def run_quietly(cmd, what):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.stderr.write("perfbench: %s failed\n" % what)
        if what == "configure":
            # A half-written cache would make the next call skip configure.
            shutil.rmtree(BUILD, ignore_errors=True)
        sys.exit(1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans_dir = os.path.join(BUILD, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans_dir, "%s-seed%d.tsv" % (args.workload, args.seed))]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
