#!/usr/bin/env python3
"""Steadiness self-check of the repository benchmark.

Runs the benchmark command of BENCHMARK.json on the same checkout in
several sets of runs (one seed per run, the same seeds in every set) and
prints, for each workload and end-to-end metric, each set's median and
quartile spread (the distance between the first and third quartile as a
share of the median, as `statistics.quantiles(values, n=4)` gives them),
the metric's bound, and whether

* every spread stays within the bound (and within a third of it, the
  target the bounds are set with);
* every later set's median is not worse than the first set's by more than
  the bound.

Run from the repository root:

    python3 perfbench/steady.py --runs 10 --sets 2
    python3 perfbench/steady.py --workloads serve-fuzz --runs 5 --sets 1

The raw results are written to perfbench/out/steady-<time>.json. The exit
code is 1 when a check fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds, trace):
    args = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    started = time.time()
    done = subprocess.run(args, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if done.returncode != 0 or result is None:
        sys.stderr.write(done.stdout[-2000:] + done.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}")
    return result, time.time() - started


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def worse_by(first, later, better):
    """How much worse `later` is than `first`, as a share of `first`."""
    if first == 0:
        return 0.0 if later == first else float("inf")
    change = (later - first) / abs(first)
    return -change if better == "higher" else change


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", help="comma-separated (default: all)")
    parser.add_argument("--runs", type=int, default=10, help="runs per set")
    parser.add_argument("--sets", type=int, default=2)
    args = parser.parse_args()

    with open("BENCHMARK.json") as handle:
        bench = json.load(handle)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    seconds = bench["run_seconds"]
    metrics = bench["end_to_end"]
    seeds = list(range(1, args.runs + 1))

    raw = {}
    failed = False
    for workload in workloads:
        sets = []
        for index in range(args.sets):
            values = {m["name"]: [] for m in metrics}
            for seed in seeds:
                result, took = run_once(bench["command"], workload, seed, seconds, 0)
                if not result["correct"]:
                    failed = True
                for metric in metrics:
                    values[metric["name"]].append(result["metrics"][metric["name"]]["value"])
                print(f"  {workload} set {index + 1} seed {seed}: {took:.1f} s, "
                      f"{result['attempted']} attempted, {result['failed']} failed",
                      flush=True)
            sets.append(values)
        raw[workload] = sets

        print(f"\n{workload}: {args.runs} run(s) per set, seeds {seeds[0]}..{seeds[-1]}")
        print(f"  {'metric':<20} {'bound':>6}  " + "  ".join(
            f"{'median ' + str(i + 1):>14} {'spread':>7}" for i in range(args.sets))
            + "  verdict")
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            cells, notes = [], []
            medians = []
            for values in sets[: args.sets]:
                median = statistics.median(values[name])
                medians.append(median)
                width = spread(values[name]) if len(values[name]) > 1 else 0.0
                cells.append(f"{median:>14.6g} {width:>7.3f}")
                if width > bound:
                    notes.append("spread over bound")
                    failed = True
                elif width > bound / 3:
                    notes.append("spread over bound/3")
            for later in medians[1:]:
                if worse_by(medians[0], later, metric["better"]) > bound:
                    notes.append("median worse than set 1 by more than the bound")
                    failed = True
            verdict = "; ".join(sorted(set(notes))) or "ok"
            print(f"  {name:<20} {bound:>6}  " + "  ".join(cells) + f"  {verdict}")
        print(flush=True)

    stamp = time.strftime("%Y%m%d-%H%M%S")
    try:
        import os
        os.makedirs("perfbench/out", exist_ok=True)
        with open(f"perfbench/out/steady-{stamp}.json", "w") as handle:
            json.dump({"seeds": seeds, "seconds": seconds, "results": raw}, handle)
    except OSError as error:
        print(f"cannot write results: {error}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
