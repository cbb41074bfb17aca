#!/usr/bin/env python3
"""Smoke test: every workload at tiny size with output checking on.

Usage (from the repository root):

    python3 perfbench/smoke.py

Runs each workload untraced and traced with --smoke (one set-up, one pass of
every phase) at the pinned seed, and traced at a held-out seed, and
asserts that each result is correct with no failed operation and that every
metric BENCHMARK.json lists is printed with its unit. Exits nonzero on the
first failure.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PINNED_SEED = 1
HELD_OUT_SEED = 7


def run(workload, seed, trace):
    command = [sys.executable, os.path.join("perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed), "--seconds", "1",
               "--trace", str(trace), "--smoke"]
    proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    assert proc.returncode == 0 and lines, f"{command}: exit {proc.returncode}"
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expected = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    cases = [(w["name"], seed, trace)
             for w in bench["workloads"]
             for seed, trace in ((PINNED_SEED, 0), (PINNED_SEED, 1),
                                 (HELD_OUT_SEED, 1))]
    for workload, seed, trace in cases:
        result = run(workload, seed, trace)
        label = f"{workload} seed {seed} trace {trace}"
        assert result["correct"], f"{label}: incorrect"
        assert result["failed"] == 0, f"{label}: {result['failed']} failed"
        assert result["attempted"] >= 1, f"{label}: nothing attempted"
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        assert printed == expected[trace], (
            f"{label}: metrics differ from BENCHMARK.json: "
            f"{sorted(set(printed.items()) ^ set(expected[trace].items()))}")
        print(f"ok  {label}: {result['attempted']} ops", flush=True)
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
