#!/usr/bin/env python3
"""CI gate over BENCH_dispatch.json (see bench/bench_dispatch.cpp).

The report carries two sections in one telemetry snapshot:

  * the zero-copy fan-out pins (64 consumers x 4 KB): one payload
    allocation per message, zero payload copies;
  * the shard scaling sweep: per-shard-count throughput gauges labelled
    {shards=N}, where msgs_per_sec is the critical-path rate — total
    messages over the slowest shard's thread-CPU time, i.e. the modeled
    N-core wall rate, measurable honestly on a 1-core runner;
  * interleaved 1-shard/4-shard pairs: one critical-path speedup gauge
    per pair, labelled {pair=k}, run on worker threads like the sweep.
    The two runs of a pair are back to back, so host drift hits both
    sides.

Gates:
  1. the sweep covers every required shard count (1, 2, 4, 8, 16);
  2. the median 4-shard/1-shard pair speedup, over at least 5 pairs, is
     >= 2.5x;
  3. no shard configuration shed a single control-plane envelope;
  4. the fan-out section's allocation discipline holds (<= 1.01
     payload allocs per message, zero payload copies).
"""
import json
import statistics
import sys

REQUIRED_SHARDS = (1, 2, 4, 8, 16)
MIN_SPEEDUP_AT_4 = 2.5
MIN_PAIRS = 5
MAX_ALLOCS_PER_MSG = 1.01


def main() -> int:
    if len(sys.argv) != 2:
        print("usage: check_dispatch_report.py BENCH_dispatch.json", file=sys.stderr)
        return 2
    with open(sys.argv[1], encoding="utf-8") as fh:
        report = json.load(fh)

    rate = {}
    pair_speedup = {}
    control_shed = {}
    allocs_per_msg = None
    copies_per_msg = None
    for metric in report["metrics"]:
        name = metric["name"]
        if name == "bench.dispatch.shard.msgs_per_sec":
            rate[int(metric["labels"]["shards"])] = metric["value"]
        elif name == "bench.dispatch.shard.pair_speedup":
            pair_speedup[int(metric["labels"]["pair"])] = metric["value"]
        elif name == "bench.dispatch.shard.control_shed":
            control_shed[int(metric["labels"]["shards"])] = metric["value"]
        elif name == "bench.dispatch.payload_allocs_per_msg":
            allocs_per_msg = metric["value"]
        elif name == "bench.dispatch.payload_copies_per_msg":
            copies_per_msg = metric["value"]

    failures = []
    missing = [n for n in REQUIRED_SHARDS if n not in rate]
    if missing:
        failures.append(f"shard sweep is missing counts {missing} — ran with --shards override?")
    speedup = statistics.median(pair_speedup.values()) if pair_speedup else 0.0
    if len(pair_speedup) < MIN_PAIRS:
        failures.append(
            f"only {len(pair_speedup)} interleaved 1/4-shard pairs, need >= {MIN_PAIRS}"
        )
    elif speedup < MIN_SPEEDUP_AT_4:
        pairs = ", ".join(f"{pair_speedup[k]:.2f}" for k in sorted(pair_speedup))
        failures.append(
            f"median 4-shard critical-path speedup {speedup:.2f}x < {MIN_SPEEDUP_AT_4}x "
            f"(pairs: {pairs})"
        )
    shed_total = sum(control_shed.values())
    if shed_total > 0:
        failures.append(
            f"{shed_total:.0f} control-plane envelopes shed across the sweep — "
            "the priority invariant is broken"
        )
    if allocs_per_msg is None:
        failures.append("bench.dispatch.payload_allocs_per_msg missing from the report")
    elif allocs_per_msg > MAX_ALLOCS_PER_MSG:
        failures.append(
            f"payload allocs/msg {allocs_per_msg:.3f} > {MAX_ALLOCS_PER_MSG} — "
            "the zero-copy fan-out regressed"
        )
    if copies_per_msg is None:
        failures.append("bench.dispatch.payload_copies_per_msg missing from the report")
    elif copies_per_msg > 0:
        failures.append(f"payload copies/msg {copies_per_msg:.3f} > 0")

    if failures:
        for failure in failures:
            print(f"dispatch gate FAILED: {failure}", file=sys.stderr)
        return 1
    sweep = ", ".join(f"{n}:{rate[n]:.0f}" for n in sorted(rate))
    print(
        f"dispatch gate OK: median 4-shard speedup {speedup:.2f}x over {len(pair_speedup)} "
        f"pairs (>= {MIN_SPEEDUP_AT_4}x), "
        f"control sheds=0, allocs/msg={allocs_per_msg:.3f}; msgs/s by shards: {sweep}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
