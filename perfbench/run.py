#!/usr/bin/env python3
"""Builds the benchmark (and the program's libraries) from source, then runs
one workload and relays its output; the last line is the result JSON.

    python3 perfbench/run.py --workload read_hot --seed 1 --seconds 20 --trace 0

`--workload all` runs the four workloads one after another. Build output
goes to stderr, so standard output carries only the run's figures.
"""
import argparse
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ["read_hot", "feed", "games_day", "recover"]
RUN_LIMIT_S = 170  # every run must end within 180 s


def build():
    """Configures and builds the perfbench target; returns True on success."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def run_one(args, workload, deadline):
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--work-dir", os.path.join(BUILD, "work")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} did not finish in time", file=sys.stderr)
        return 1
    sys.stdout.write(done.stdout.decode(errors="replace"))
    sys.stdout.flush()
    return done.returncode


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    for workload in workloads:
        # The limit counts from here: the first run of a checkout builds
        # first and is allowed the longer start-up.
        rc = run_one(args, workload, time.monotonic() + RUN_LIMIT_S)
        if rc:
            return rc
    return 0


if __name__ == "__main__":
    sys.exit(main())
