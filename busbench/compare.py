#!/usr/bin/env python3
"""Paired A/B comparison of two busbench builds.

  python3 busbench/compare.py PARENT_BUILD_DIR CHANGE_BUILD_DIR [--pairs 10]
          [--workloads lan_fanout,...] [--seed 1] [--seconds 10]

Each build dir holds a built `busbench` driver (e.g. .bench_build/busbench of two
checkouts). Pair i runs both sides on the same seed, SEED+i, alternating which
side runs first. For every workload and end-to-end metric it prints each side's
quartiles, the pairs the change won (ties count for neither side), the median
per-pair change as a share of the parent's value ("worse", positive when the
change is worse), and a verdict.

A gain needs at least 10 pairs, of which the change won 9 in 10. Metrics that
are pure functions of the seed (allocation counts and the sim metrics) are
judged by their exact per-pair differences against the tolerances in EXACT:

  regression  the median per-pair change is worse than the tolerance; with a
              tolerance of 0, any pair that got worse
  gain        the change won 9 in 10 pairs and the median per-pair change is
              better than the tolerance
  same        neither

The wall-clock metrics (setup_s, cpu_ns_per_delivery, peak_rss_mb) are judged
against noise. Their tolerance is the larger of the bound in BENCHMARK.json
(as a share of the parent's median) and the metric's FLOOR:

  gain        the change won 9 in 10 pairs and the medians differ by more
              than the parent's interquartile range and the floor
  regression  the change's median is worse than the parent's by more than the
              tolerance
  unresolved  the parent's own interquartile range exceeds the tolerance, so
              "no change" cannot be told apart from noise
  same        none of the above
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Per-pair tolerances of the deterministic metrics. BENCHMARK.json's bounds are
# wider because they must also absorb the spread between seeds; a pair has none.
EXACT = {
    "allocs_per_delivery": 0.01,
    "alloc_bytes_per_delivery": 0.01,
    "sim_latency_p50_us": 0.01,
    "sim_latency_p999_us": 0.01,
    "sim_max_rate_msgs_per_s": 0.0,  # any ladder step down
    "delivered_ratio": 0.0,
}
# Absolute differences below these never count: set-up of the light workloads
# takes tens of ms, where scheduler noise is as large as the difference.
FLOOR = {"setup_s": 0.05, "peak_rss_mb": 2.0}
# Fewer pairs than this never make a gain.
MIN_PAIRS = 10


def run(build, workload, seed, seconds):
    binary = os.path.join(build, "busbench")
    proc = subprocess.run([binary, "--workload", workload, "--seed", str(seed), "--seconds",
                           str(seconds), "--mode", "measure"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                          timeout=600)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        sys.exit("compare: %s failed on %s seed %d" % (binary, workload, seed))
    return {k: v["value"] for k, v in result["metrics"].items()}


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], statistics.median(xs), q[2]


def verdict(metric, a, b):
    """Returns (pairs won by the change, median per-pair change, verdict)."""
    sign = 1 if metric["better"] == "lower" else -1
    name = metric["name"]
    # Per-pair change as a share of the parent's value; positive is worse.
    worse = [sign * (y - x) / x if x else sign * (y - x) for x, y in zip(a, b)]
    wins = sum(1 for w in worse if w < 0)
    won = len(a) >= MIN_PAIRS and wins >= 0.9 * len(a)
    median_worse = statistics.median(worse)
    if name in EXACT:
        tol = EXACT[name]
        if median_worse > tol or (tol == 0 and max(worse) > 0):
            return wins, median_worse, "regression"
        if won and median_worse < -tol:
            return wins, median_worse, "gain"
        return wins, median_worse, "same"
    a1, am, a3 = quartiles(a)
    _, bm, _ = quartiles(b)
    floor = FLOOR.get(name, 0.0)
    tol = max(metric["bound"] * abs(am), floor)
    if won and abs(bm - am) > max(a3 - a1, floor):
        return wins, median_worse, "gain"
    if sign * (bm - am) > tol:
        return wins, median_worse, "regression"
    if a3 - a1 > tol:
        return wins, median_worse, "unresolved"
    return wins, median_worse, "same"


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    for workload in workloads:
        a_runs, b_runs = [], []
        for i in range(args.pairs):
            seed = args.seed + i
            order = [("a", args.parent), ("b", args.change)]
            if i % 2:
                order.reverse()
            for side, build in order:
                (a_runs if side == "a" else b_runs).append(
                    run(build, workload, seed, args.seconds))
        print("== %s (%d pairs, seeds %d-%d)" % (workload, args.pairs, args.seed,
                                                args.seed + args.pairs - 1))
        print("%-26s %-32s %-32s %5s %9s  %s" % ("metric", "parent q1/median/q3",
                                                 "change q1/median/q3", "wins", "worse",
                                                 "verdict"))
        for metric in bench["end_to_end"]:
            name = metric["name"]
            a = [r[name] for r in a_runs]
            b = [r[name] for r in b_runs]
            wins, change, v = verdict(metric, a, b)
            print("%-26s %-32s %-32s %2d/%-2d %+8.2f%%  %s" % (
                name, "%.5g/%.5g/%.5g" % quartiles(a), "%.5g/%.5g/%.5g" % quartiles(b),
                wins, len(a), 100 * change, v))
    return 0


if __name__ == "__main__":
    sys.exit(main())
