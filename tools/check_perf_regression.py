#!/usr/bin/env python3
"""Compare a fresh perf-matrix run against the committed baseline.

Usage: check_perf_regression.py BASELINE.json NEW.json [--tolerance 0.25]
       check_perf_regression.py --baseline OTHER.json NEW.json

The gate tracks the machine-portable metrics: the per-scenario speedup
ratios (active-set/full-scan for the matrix scenarios, workspace/fresh-
Simulator for the short-run sweep scenario), which are measured within
one run on one machine and so cancel out host speed. A ratio that drops
more than --tolerance below the committed baseline fails the check, as
does a scenario present in the baseline but missing from the fresh run
(a silently shrunk matrix must not pass the gate). Absolute cycles/sec
values in the JSON are informational (they depend on the host) and are
printed but not gated.

--baseline overrides the positional baseline (handy for comparing a
fresh run against an arbitrary recorded file, e.g. a previous PR's
artifact, without reordering arguments in CI).

Sharded-scenario keys ("<scenario>/shardsN") are wall-clock ratios of a
serial run over an N-thread run, so they are only comparable between
hosts that can actually run N threads in parallel. When the fresh run's
recorded "hardware_concurrency" (in its "config" object) is below N, the
key is skipped with a note instead of gated - a 1-core container cannot
regress (or satisfy) a 4-shard speedup. Conversely, when the fresh host
*can* express the ratio (hardware_concurrency >= N) the floor is raised
to at least (1 - tolerance) x 1.0: a capable host must roughly break
even on sharding even when the committed baseline was recorded on a
weaker host whose same key legitimately measured a parallelism tax
(ratio < 1.0, e.g. the 1-core numbers in BENCH_PR5.json).

A geomean summary line over the scenarios common to both runs is printed
at the end ("overall"-style aggregate keys are excluded from it).

Exit codes:
  0  every gated scenario passed
  1  at least one gated ratio regressed past --tolerance (or a baseline
     scenario is missing from the fresh run)
  2  malformed input: unreadable file, invalid JSON, or a JSON document
     without the expected "speedup" table
  3  the host filter skipped *every* baseline scenario - nothing was
     actually gated, so a success banner would be a lie (e.g. a baseline
     containing only shard ratios checked on a 1-core container). The
     warning lists each skipped scenario and why it was skipped.
"""

import argparse
import json
import math
import re
import sys

#: Aggregate keys that may appear in a "speedup" table alongside the
#: per-scenario ratios; they are gated like any other key but excluded
#: from the geomean summary (they are already aggregates).
AGGREGATE_KEYS = {"overall", "geomean"}

#: Suffix of shard-count-dependent scenario keys.
SHARDS_KEY_RE = re.compile(r"/shards(\d+)$")


def shards_of_key(key: str):
    """Shard count of a "<scenario>/shardsN" key, or None."""
    match = SHARDS_KEY_RE.search(key)
    return int(match.group(1)) if match else None


def die_malformed(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def load_speedups(path: str) -> dict:
    """Reads the "speedup" table of a perf JSON, with actionable errors."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as err:
        die_malformed(f"cannot read {path}: {err}")
    except json.JSONDecodeError as err:
        die_malformed(f"{path} is not valid JSON: {err}")
    if not isinstance(doc, dict) or not isinstance(doc.get("speedup"), dict):
        die_malformed(f"{path} has no \"speedup\" table; is it a "
                      f"--perf-json output?")
    bad = {k: v for k, v in doc["speedup"].items()
           if not isinstance(v, (int, float)) or isinstance(v, bool)}
    if bad:
        die_malformed(f"non-numeric speedup entries in {path}: {sorted(bad)}")
    return doc


def geomean(values) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return float("nan")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def main() -> int:
    # RawDescriptionHelpFormatter keeps the usage/exit-code layout of the
    # module docstring intact in --help instead of rewrapping it to mush.
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("baseline", nargs="?", default=None,
                        help="committed baseline JSON (positional)")
    parser.add_argument("fresh", help="fresh --perf-json output to check")
    parser.add_argument("--baseline", dest="baseline_override", default=None,
                        metavar="PATH",
                        help="override the positional baseline path")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed fractional drop in speedup ratios")
    args = parser.parse_args()

    baseline_path = args.baseline_override or args.baseline
    if baseline_path is None:
        parser.error("a baseline is required (positional or --baseline)")

    baseline = load_speedups(baseline_path)
    fresh = load_speedups(args.fresh)

    config = fresh.get("config")
    fresh_hw = config.get("hardware_concurrency") if isinstance(config, dict) \
        else None

    failures = []
    gated = 0
    skipped = []  # (key, reason) pairs, re-printed in the exit-3 warning
    for key, base_value in sorted(baseline["speedup"].items()):
        new_value = fresh["speedup"].get(key)
        shards = shards_of_key(key)
        if (shards is not None and isinstance(fresh_hw, int)
                and fresh_hw < shards):
            reason = (f"host has {fresh_hw} hardware threads, cannot "
                      f"express a {shards}-shard ratio")
            print(f"skip speedup[{key}]: {reason}")
            skipped.append((key, reason))
            continue
        gated += 1
        if new_value is None:
            print(f"FAIL speedup[{key}]: missing from fresh run")
            failures.append(
                f"speedup[{key}]: present in baseline but missing from "
                f"{args.fresh} (scenario dropped from the matrix?)")
            continue
        floor = base_value * (1.0 - args.tolerance)
        if (shards is not None and isinstance(fresh_hw, int)
                and fresh_hw >= shards):
            # A host that can express an N-shard ratio must at least
            # break even (modulo tolerance), even against a baseline
            # recorded on a weaker host where the key measured a
            # parallelism tax (< 1.0).
            floor = max(floor, 1.0 - args.tolerance)
        status = "OK " if new_value >= floor else "FAIL"
        print(f"{status} speedup[{key}]: baseline {base_value:.3f} -> "
              f"fresh {new_value:.3f} (floor {floor:.3f})")
        if new_value < floor:
            failures.append(
                f"speedup[{key}] regressed: {new_value:.3f} < {floor:.3f} "
                f"(baseline {base_value:.3f}, tolerance {args.tolerance:.0%})")

    for key in sorted(set(fresh["speedup"]) - set(baseline["speedup"])):
        print(f"info speedup[{key}]: new scenario (no baseline), "
              f"{fresh['speedup'][key]:.3f}")

    for point in fresh.get("points", []):
        if point.get("core") == "active_set":
            label = point.get("scenario") or point.get("algorithm", "?")
            print(f"info {label}: "
                  f"{point.get('cycles_per_sec', 0):,.0f} cycles/s, "
                  f"{point.get('flit_hops_per_sec', 0):,.0f} flit-hops/s")
        elif point.get("mode") == "workspace":
            print(f"info {point.get('scenario', '?')}: "
                  f"{point.get('points_per_sec', 0):,.1f} sweep points/s")

    # Geomean summary over the per-scenario ratios both runs share.
    common = [k for k in baseline["speedup"]
              if k in fresh["speedup"] and k not in AGGREGATE_KEYS]
    if common:
        base_gm = geomean(baseline["speedup"][k] for k in common)
        new_gm = geomean(fresh["speedup"][k] for k in common)
        print(f"\ngeomean speedup over {len(common)} scenarios: "
              f"baseline {base_gm:.3f} -> fresh {new_gm:.3f} "
              f"({new_gm / base_gm:.3f}x of baseline)")

    if failures:
        print("\nPerf regression detected:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    if gated == 0 and skipped:
        print(f"\nWARNING: all {len(skipped)} baseline scenarios were "
              f"skipped by the hardware_concurrency filter - nothing was "
              f"gated. This is not a pass; run the check on a host with "
              f"enough cores (or fix the baseline). Skipped:",
              file=sys.stderr)
        for key, reason in skipped:
            print(f"  - speedup[{key}]: {reason}", file=sys.stderr)
        return 3
    print("\nNo perf regression against the committed baseline.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
