#!/usr/bin/env python3
"""CI gate on the count metrics of a traced perfbench run.

    python3 perfbench/run.py --workload fanout --seed 1 --seconds 3 --trace 1 > out.txt
    scripts/check_perf_counts.py fanout out.txt

The last line of the run's stdout is its JSON result. Eight of its
per-layer metrics are counts divided by counts: scheduler events, bus
posts, histogram observations, payload allocations and copies per
message, radio copies per frame, op-log entries per message and delta
bytes per capture. On a given seed they repeat exactly from run to run
and from machine to machine, whatever the run length or host speed, so
the gate compares them for equality with the values pinned beside this
script (perf_counts_seed1.json). Any change fails: a change that means to
move one updates the pinned file and says why in CHANGES.md.

gw_socket is not gated: its counts follow real socket timing.
"""
import json
import os
import sys

COUNTS = [
    "sim.events_per_msg",
    "bus.posts_per_msg",
    "obs.observations_per_msg",
    "util.payload_allocs_per_msg",
    "util.payload_copies_per_msg",
    "wireless.copies_per_frame",
    "recovery.ops_logged_per_msg",
    "recovery.delta_bytes_per_capture",
]
PINNED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "perf_counts_seed1.json")


def last_json_line(path):
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh.read().splitlines() if line.strip()]
    if not lines:
        raise ValueError(f"{path} is empty")
    return json.loads(lines[-1])


def main() -> int:
    if len(sys.argv) != 3:
        print("usage: check_perf_counts.py WORKLOAD RUN_OUTPUT", file=sys.stderr)
        return 2
    workload, path = sys.argv[1], sys.argv[2]
    with open(PINNED, encoding="utf-8") as fh:
        pinned = json.load(fh)
    if workload not in pinned:
        print(f"no pinned counts for workload {workload!r}", file=sys.stderr)
        return 2
    result = last_json_line(path)

    failures = []
    if not result.get("correct", False) or result.get("failed", 1) != 0:
        failures.append(f"the run failed its output checks ({result.get('failed')} failed)")
    metrics = result.get("metrics", {})
    for name in COUNTS:
        want = pinned[workload][name]
        if name not in metrics:
            failures.append(f"{name} missing from the run's metrics")
            continue
        got = metrics[name]["value"]
        if got != want:
            failures.append(f"{name} = {got!r}, pinned {want!r}")

    if failures:
        print(f"perf counts FAILED for {workload} (seed 1):")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(f"perf counts OK for {workload}: {len(COUNTS)} counts equal the seed-1 pins")
    return 0


if __name__ == "__main__":
    sys.exit(main())
