#!/usr/bin/env python3
"""Times a change against a parent commit in alternating pairs of runs.

    python3 scripts/perf_pairs.py --parent REF [--workloads field,fanout,gw_socket]
        [--pairs 10] [--seconds 40] [--seed 1] [--trace 0|1] [--out runs.json]
    python3 scripts/perf_pairs.py --self-test

Run from the repository root. The parent is exported with `git archive REF`
into --work-dir (default .perf_pairs); the change is the working tree as it
stands; a later call with the same parent reuses its export and builds.
Each side is built by its own perfbench/run.py into its own
CARGO_TARGET_DIR, then every workload runs --pairs pairs, the parent first
in even pairs and the change first in odd ones, so a drift in host speed
falls on both sides alike.

For every metric the run reports, it prints each side's median and
quartiles (statistics.quantiles, n=4), the change of the median in %, the
pairs the change won (ties count for neither side), and whether a gain
holds: the change won at least 9 of every 10 pairs and the medians differ
by more than the parent's interquartile range. For the end-to-end metrics
of BENCHMARK.json it also flags a median worse than the parent's by more
than the metric's bound, and calls a metric unresolved when the parent's
own spread exceeds that bound. A side whose runs fail an output check, or
report failed deliveries, is printed as such.
"""

import argparse
import importlib.util
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WIN_SHARE = 0.9


def summarize(values):
    """Median and quartiles of a list of at least two numbers."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "iqr": q3 - q1,
            "n": len(values)}


def compare(parent, change, better, bound=None):
    """Compares paired runs of one metric. `parent[i]` and `change[i]` ran
    as pair i; `better` is "higher" or "lower"; `bound` is the share of the
    parent's median the change may worsen by (None: no bound)."""
    sign = 1 if better == "higher" else -1
    base = summarize(parent)
    new = summarize(change)
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    gap = sign * (new["median"] - base["median"])  # > 0: the change is better
    pct = (100.0 * (new["median"] - base["median"]) / base["median"]
           if base["median"] else float("nan"))
    result = {
        "parent": base,
        "change": new,
        "pct": pct,
        "wins": wins,
        "losses": losses,
        "pairs": len(parent),
        "gain": wins >= WIN_SHARE * len(parent) and gap > base["iqr"],
        "exceeds_bound": False,
        "unresolved": False,
    }
    if bound is not None and base["median"]:
        result["exceeds_bound"] = -gap > bound * abs(base["median"])
        result["unresolved"] = base["iqr"] > bound * abs(base["median"])
    return result


def load_spec(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = {}
    for entry in spec["end_to_end"]:
        metrics[entry["name"]] = (entry["better"], entry["bound"])
    for entry in spec["per_layer"]:
        metrics[entry["name"]] = (entry["better"], None)
    return spec, metrics


def export(ref, work_dir):
    """Extracts `git archive ref` into work_dir/parent, unless that tree is
    already the same commit (re-extracting would rebuild it from scratch)."""
    commit = subprocess.run(["git", "rev-parse", "--verify", ref + "^{commit}"], cwd=ROOT,
                            check=True, capture_output=True, text=True).stdout.strip()
    dest = os.path.join(work_dir, "parent")
    stamp = os.path.join(dest, ".perf_pairs_commit")
    if os.path.exists(stamp):
        with open(stamp) as f:
            if f.read().strip() == commit:
                return dest
    if os.path.exists(dest):
        shutil.rmtree(dest)
    os.makedirs(dest)
    with tempfile.TemporaryFile() as archive:
        subprocess.run(["git", "archive", commit], cwd=ROOT, stdout=archive, check=True)
        archive.seek(0)
        with tarfile.open(fileobj=archive) as tar:
            tar.extractall(dest)
    with open(stamp, "w") as f:
        f.write(commit + "\n")
    return dest


def build(root, target_dir):
    """Builds the perfbench binary of the tree at `root` with its own run.py."""
    spec = importlib.util.spec_from_file_location("perfbench_run", os.path.join(
        root, "perfbench", "run.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    os.environ["CARGO_TARGET_DIR"] = target_dir
    try:
        module.build("perfbench")
    finally:
        del os.environ["CARGO_TARGET_DIR"]


def run_once(root, target_dir, workload, seed, seconds, trace):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    out = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, env=env, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(out.stdout + out.stderr)
        raise SystemExit(f"perf_pairs: {workload} in {root} printed no result")
    result["exit"] = out.returncode
    return result


def report(workload, runs, metrics):
    print(f"\n== {workload}: {len(runs['parent'])} pairs ==")
    for side in ("parent", "change"):
        failed = sum(r["failed"] for r in runs[side])
        attempted = sum(r["attempted"] for r in runs[side])
        bad = sum(1 for r in runs[side] if r["exit"] != 0 or not r["correct"])
        print(f"{side:6s}: failed {failed} of {attempted} attempted; "
              f"{bad} runs failed an output check")
    print(f"{'metric':36s} {'parent median [q1, q3]':>34s} {'change median [q1, q3]':>34s}"
          f" {'change':>8s} {'won':>6s}  verdict")
    names = [n for n in runs["parent"][0]["metrics"] if n in metrics]
    for name in names:
        better, bound = metrics[name]
        parent = [r["metrics"][name]["value"] for r in runs["parent"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        if len(parent) < 2:
            print(f"{name:36s} needs at least two pairs")
            continue
        c = compare(parent, change, better, bound)
        verdict = []
        if c["gain"]:
            verdict.append("GAIN")
        if c["exceeds_bound"]:
            verdict.append(f"WORSE THAN BOUND {bound:.0%}")
        if c["unresolved"]:
            verdict.append("unresolved (parent spread > bound)")
        p, n = c["parent"], c["change"]
        print(f"{name:36s} {p['median']:12.6g} [{p['q1']:9.4g}, {p['q3']:9.4g}] "
              f"{n['median']:12.6g} [{n['q1']:9.4g}, {n['q3']:9.4g}] "
              f"{c['pct']:+7.2f}% {c['wins']:2d}/{c['pairs']:<3d}  {' '.join(verdict)}")


def self_test():
    # Quartiles follow statistics.quantiles' exclusive method.
    s = summarize([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
    assert s["median"] == 5.5 and s["q1"] == 2.75 and s["q3"] == 8.25, s
    # Higher is better: 9 of 10 wins and a median gap beyond the IQR is a gain.
    parent = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    change = [110, 111, 109, 110, 112, 108, 110, 111, 109, 99.5]
    c = compare(parent, change, "higher", 0.25)
    assert c["wins"] == 9 and c["losses"] == 1 and c["gain"], c
    assert abs(c["pct"] - 10.0) < 1e-9 and not c["exceeds_bound"], c
    # 8 of 10 wins is no gain, however large the gap.
    change8 = change[:8] + [90, 90]
    assert not compare(parent, change8, "higher")["gain"]
    # Ties count for neither side.
    c = compare([1, 2, 3], [1, 2, 4], "higher")
    assert c["wins"] == 1 and c["losses"] == 0, c
    # Lower is better: a fall wins; a gap inside the parent's IQR is no gain.
    c = compare([10, 20, 30, 40], [9, 19, 29, 39], "lower")
    assert c["wins"] == 4 and not c["gain"], c
    c = compare([10, 11, 12, 13], [5, 6, 7, 8], "lower")
    assert c["gain"] and c["pct"] < 0, c
    # Bounds: a 30% rise of a lower-is-better metric breaks a 25% bound,
    # a 20% rise does not; a wide parent spread is unresolved.
    assert compare([10, 10, 10, 10], [13, 13, 13, 13], "lower", 0.25)["exceeds_bound"]
    assert not compare([10, 10, 10, 10], [12, 12, 12, 12], "lower", 0.25)["exceeds_bound"]
    assert compare([10, 10, 10, 10], [7, 7, 7, 7], "higher", 0.25)["exceeds_bound"]
    assert compare([5, 10, 15, 20], [12, 12, 12, 12], "higher", 0.25)["unresolved"]
    # The spec names a direction for every metric perfbench prints.
    _, metrics = load_spec(ROOT)
    assert metrics["msgs_per_s"] == ("higher", 0.25) and metrics["peak_rss_mb"][1] == 0.1
    print("perf_pairs self-test OK")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent")
    parser.add_argument("--workloads", default="field,fanout,gw_socket")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--work-dir", default=os.path.join(ROOT, ".perf_pairs"))
    parser.add_argument("--out", help="write every run's result here as JSON")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not args.parent:
        parser.error("--parent is required")
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")

    spec, metrics = load_spec(ROOT)
    seconds = args.seconds or spec["run_seconds"]
    work_dir = os.path.abspath(args.work_dir)
    sides = {
        "parent": (export(args.parent, work_dir), os.path.join(work_dir, "build-parent")),
        "change": (ROOT, os.path.join(work_dir, "build-change")),
    }
    for side, (root, target) in sides.items():
        print(f"building {side} ({root})", file=sys.stderr, flush=True)
        build(root, target)

    all_runs = {}
    for workload in args.workloads.split(","):
        runs = {"parent": [], "change": []}
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                root, target = sides[side]
                runs[side].append(run_once(root, target, workload, args.seed, seconds,
                                           args.trace))
            print(f"{workload} pair {pair + 1}/{args.pairs} done", file=sys.stderr, flush=True)
        all_runs[workload] = runs
        report(workload, runs, metrics)
        sys.stdout.flush()
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"parent": args.parent, "seed": args.seed, "seconds": seconds,
                       "trace": args.trace, "runs": all_runs}, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
