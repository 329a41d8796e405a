#!/usr/bin/env python3
"""Checks that the benchmark is steady: run-to-run spread against BENCHMARK.json.

    python3 perfbench/spread.py --workload paper_month_full --seeds 1-10 [--sets 2]

Runs perfbench/run.py --trace 0 once per seed (per set), then prints for every
end-to-end metric the median and the interquartile spread, (Q3 - Q1) / median
with Python's statistics.quantiles(values, n=4), next to the metric's bound.
With --sets 2 it repeats the seeds and also prints how far the second median
moved from the first, as a share of the first. A benchmark is steady when
every spread except setup_s stays within a third of its bound and no median
gets worse by more than the bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_set(workload, seeds, seconds):
    values = {}
    for seed in seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, cwd=ROOT)
        if proc.returncode != 0:
            sys.exit("seed %d failed:\n%s" % (seed, proc.stderr[-2000:]))
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit("seed %d: %d of %d operations failed" %
                     (seed, result["failed"], result["attempted"]))
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.6g" % (n, m["value"]) for n, m in result["metrics"].items())), flush=True)
    return values


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--sets", type=int, default=1)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    sets = [run_set(args.workload, seeds, bench["run_seconds"]) for _ in range(args.sets)]

    print("%-22s %14s %8s %8s %s" % ("metric", "median", "spread", "bound",
                                     "median drift" if args.sets > 1 else ""))
    print("(median of the last set; spread is the largest of the sets)")
    for name, spec in bounds.items():
        medians, spreads = [], []
        for values in sets:
            q1, _, q3 = statistics.quantiles(values[name], n=4)
            medians.append(statistics.median(values[name]))
            spreads.append((q3 - q1) / medians[-1])
        drift = ""
        if len(medians) > 1:
            worse = medians[-1] - medians[0] if spec["better"] == "lower" \
                else medians[0] - medians[-1]
            drift = "%+.4f" % (worse / medians[0])
        print("%-22s %14.6g %8.4f %8.3f %s" % (name, medians[-1], max(spreads), spec["bound"],
                                               drift))


if __name__ == "__main__":
    main()
