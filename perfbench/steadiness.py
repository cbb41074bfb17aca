#!/usr/bin/env python3
"""Steadiness report: run the workloads repeatedly and measure the spread.

Usage (from the repository root):

    python3 perfbench/steadiness.py --runs 10 [--sets 2]

Each round runs every workload in BENCHMARK.json once, rotating their order
from round to round, with a fresh --seed per run (seeds count up from 100).
For every end-to-end metric of every workload it prints the measured
values, their median, the quartiles (statistics.quantiles, n=4) and the
spread (q3 - q1) / median, and flags a spread beyond the metric's bound in
BENCHMARK.json. With --sets 2 it repeats the whole measurement with the next
seeds and flags any metric whose second median differs from the first, in
either direction, by more than its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIRST_SEED = 100


def run_once(workload, seed, seconds):
    command = [sys.executable, os.path.join("perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        raise RuntimeError(f"{workload} seed {seed}: incorrect result")
    return {name: m["value"] for name, m in result["metrics"].items()}


def measure(workloads, runs, first_seed, seconds):
    values = {w: {} for w in workloads}
    for r in range(runs):
        order = workloads[r % len(workloads):] + workloads[:r % len(workloads)]
        for w in order:
            seed = first_seed + r
            metrics = run_once(w, seed, seconds)
            print(f"  round {r + 1}/{runs} {w} seed {seed}: " +
                  ", ".join(f"{k}={v:.6g}" for k, v in metrics.items()),
                  flush=True)
            for name, value in metrics.items():
                values[w].setdefault(name, []).append(value)
    return values


def report(values, metrics):
    """Prints the spread table; returns the medians and whether all fit."""
    steady = True
    medians = {}
    print(f"{'workload':<16} {'metric':<20} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>7} {'bound':>6}")
    for w, by_metric in values.items():
        for name, samples in by_metric.items():
            q1, med, q3 = statistics.quantiles(samples, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = metrics[name]["bound"]
            flag = ""
            if spread > bound:
                flag, steady = "WIDE", False
            elif spread > bound / 3:
                flag = "over 1/3 bound"
            medians[(w, name)] = statistics.median(samples)
            print(f"{w:<16} {name:<20} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{spread:>7.3f} {bound:>6.2f} {flag}")
            print(f"{'':<16}   values: " +
                  " ".join(f"{v:.6g}" for v in samples))
    return medians, steady


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]

    sets = []
    steady = True
    for s in range(args.sets):
        print(f"set {s + 1}: {args.runs} rounds over {', '.join(workloads)}")
        values = measure(workloads, args.runs, FIRST_SEED + s * args.runs,
                         bench["run_seconds"])
        medians, fits = report(values, metrics)
        steady &= fits
        sets.append(medians)

    if args.sets == 2:
        print("median agreement (second vs first, share of first):")
        for key, first in sets[0].items():
            second = sets[1][key]
            bound = metrics[key[1]]["bound"]
            change = (second - first) / first
            flag = ""
            if abs(change) > bound:
                flag, steady = "DISAGREE", False
            print(f"{key[0]:<16} {key[1]:<20} {first:>12.6g} {second:>12.6g} "
                  f"{change:>+7.3f} {bound:>6.2f} {flag}")

    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
