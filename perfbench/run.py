#!/usr/bin/env python3
"""Build the perfbench binary from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper_load --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench),
relative to the working directory. Build output goes to stderr; the binary's
stdout is passed through, and its last line is the result JSON. Exits nonzero,
without a result, when the build or the binary fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("paper_load", "fault_campaign", "grid64_shards2")


def build(build_dir):
    """Configure (once) and build the binary; returns its path or None."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny size: one set-up, one pass per phase")
    parser.add_argument("--record-pins", metavar="FILE",
                        help="write this seed's observed outputs to FILE")
    args = parser.parse_args()

    build_dir = os.path.abspath(
        os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                     "perfbench"))
    binary = build(build_dir)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    command = [binary, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--work-dir", os.path.join(build_dir, "work"),
               "--pins-dir", os.path.join(HERE, "pins")]
    if args.smoke:
        command.append("--smoke")
    if args.record_pins:
        command += ["--record-pins", os.path.abspath(args.record_pins)]
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
