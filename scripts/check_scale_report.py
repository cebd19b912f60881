#!/usr/bin/env python3
"""CI gate over BENCH_scale.json (see bench/bench_scale.cpp).

The report holds one entry per stream-count tier (10^4, 10^5, 10^6) of
the registration-scale bench: the four services' StreamTable footprint,
steady-state dispatch throughput, and the checkpoint-capture stall for
full vs incremental frames. The gate enforces the scale contract the
StreamTable migration was made for:

  1. the 10^5 tier must be present (a run that silently dropped the
     scale tiers proves nothing — 10^6 is also expected but tolerated
     missing only if explicitly allowed via --allow-missing-top-tier);
  2. bytes/stream stays inside budget at every tier — the flat index +
     arena layout must not regress toward node-per-stream costs;
  3. the incremental capture stall stays inside budget, and at the
     large tiers it must actually undercut the full-capture stall
     (otherwise the delta machinery is dead weight) — in milliseconds,
     and, with no timing noise, in bytes: a delta frame as large as the
     full frame means the dirty journals are not doing their job;
  4. every service's mean probe length stays inside budget at every
     tier. This is a count taken by walking each table's index, not a
     timing, so noise cannot trip it; a clustering hash can.
"""
import argparse
import json
import sys

# Index + arena bytes across all four services, per stream. The measured
# figure is ~250-450 B/stream depending on tier load factor; 1 KiB leaves
# headroom for field growth without tolerating a node-per-stream relapse
# (std::map was >2 KiB/stream across the services).
BYTES_PER_STREAM_BUDGET = 1024.0

# Worst single-service incremental-capture stall with ~1% of streams
# dirty. Full captures at 10^6 streams take O(seconds); the delta path
# exists to keep the steady-state stall bounded regardless of population.
DELTA_STALL_BUDGET_MS = 1000.0

# Mean slots a successful lookup inspects in each service's StreamTable
# index. A well-mixed hash measures 1.0-1.4 at the tables' load factors;
# a hash that clusters the packed ids (tag 0 in the low byte) measured
# 49-63 on the same keys.
PROBE_MEAN_BUDGET = 2.0
SERVICES = ("catalog", "filtering", "dispatch", "location")

REQUIRED_TIER = 100_000
TOP_TIER = 1_000_000


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("report", help="BENCH_scale.json path")
    parser.add_argument(
        "--allow-missing-top-tier",
        action="store_true",
        help="tolerate an absent 10^6 tier (smoke runs on tiny machines)",
    )
    args = parser.parse_args()

    with open(args.report, encoding="utf-8") as fh:
        report = json.load(fh)

    tiers = {int(t["streams"]): t for t in report.get("tiers", [])}
    failures = []

    if REQUIRED_TIER not in tiers:
        failures.append(f"the {REQUIRED_TIER:,}-stream tier is missing from the report")
    if TOP_TIER not in tiers and not args.allow_missing_top_tier:
        failures.append(
            f"the {TOP_TIER:,}-stream tier is missing from the report "
            "(pass --allow-missing-top-tier to tolerate)"
        )

    for streams, tier in sorted(tiers.items()):
        bps = float(tier.get("bytes_per_stream", float("inf")))
        if bps > BYTES_PER_STREAM_BUDGET:
            failures.append(
                f"{streams:,} streams: {bps:.0f} bytes/stream exceeds the "
                f"{BYTES_PER_STREAM_BUDGET:.0f} B budget — table layout regressed"
            )
        delta_ms = float(tier.get("delta_capture_ms", float("inf")))
        if delta_ms > DELTA_STALL_BUDGET_MS:
            failures.append(
                f"{streams:,} streams: {delta_ms:.1f}ms incremental-capture stall "
                f"exceeds the {DELTA_STALL_BUDGET_MS:.0f}ms budget"
            )
        full_ms = float(tier.get("full_capture_ms", 0.0))
        if streams >= REQUIRED_TIER and delta_ms >= full_ms and full_ms > 0:
            failures.append(
                f"{streams:,} streams: incremental capture ({delta_ms:.1f}ms) is no "
                f"cheaper than a full capture ({full_ms:.1f}ms) — deltas are dead weight"
            )
        delta_bytes = float(tier.get("delta_capture_bytes", float("inf")))
        full_bytes = float(tier.get("full_capture_bytes", 0.0))
        if streams >= REQUIRED_TIER and delta_bytes >= full_bytes:
            failures.append(
                f"{streams:,} streams: incremental capture ({delta_bytes:,.0f} B) is no "
                f"smaller than a full capture ({full_bytes:,.0f} B) — the dirty journals "
                "capture everything"
            )
        if float(tier.get("msgs_per_sec", 0.0)) <= 0:
            failures.append(f"{streams:,} streams: no traffic measured")
        probe_mean = tier.get("probe_mean", {})
        for service in SERVICES:
            if service not in probe_mean:
                failures.append(f"{streams:,} streams: no {service} probe_mean in the report")
                continue
            probes = float(probe_mean[service])
            if probes > PROBE_MEAN_BUDGET:
                failures.append(
                    f"{streams:,} streams: {service} lookups average {probes:.2f} probes, "
                    f"over the {PROBE_MEAN_BUDGET:.1f} budget — the table hash clusters"
                )

    if failures:
        for failure in failures:
            print(f"scale gate FAILED: {failure}", file=sys.stderr)
        return 1

    for streams, tier in sorted(tiers.items()):
        print(
            f"scale gate OK: {streams:>9,} streams — "
            f"{tier['bytes_per_stream']:.0f} B/stream, "
            f"{tier['msgs_per_sec']:,.0f} msgs/s, "
            f"capture full {tier['full_capture_ms']:.1f}ms / "
            f"delta {tier['delta_capture_ms']:.1f}ms "
            f"({tier['delta_capture_bytes']:,.0f} of {tier['full_capture_bytes']:,.0f} B), "
            f"probes/lookup max {max(tier['probe_mean'].values()):.2f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
