#!/usr/bin/env python3
"""Runs one workload on several seeds and reports each metric's spread.

    python3 perfbench/spread.py --workload field --runs 10 [--seconds 30]

For every end-to-end metric: the median over the runs and the distance
between the first and third quartile (statistics.quantiles, n=4) as a
share of that median, next to the metric's bound from BENCHMARK.json.
Run from the repository root; seeds are 1..runs unless --first-seed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    values = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        out = subprocess.run(
            [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True)
        if out.returncode != 0:
            print(out.stdout + out.stderr, file=sys.stderr)
            return 1
        result = json.loads(out.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    worst = 0.0
    for metric in spec["end_to_end"]:
        vals = values[metric["name"]]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        share = spread / metric["bound"]
        if metric["name"] != "setup_s":
            worst = max(worst, share)
        print(f"{metric['name']:22s} median {med:14.6g} {metric['unit']:6s} "
              f"IQR/median {spread:6.3f}  bound {metric['bound']:.2f}  ({share:.2f} of bound)")
    print(f"worst spread outside setup_s: {worst:.2f} of its bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
